package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFailover runs the example: run fails when no promotion happens or an
// acknowledged write is lost; the output must report both milestones.
func TestFailover(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"SWAT promoted a secondary", "all 2000 acknowledged writes survived"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
