package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestQuickstart runs the example and checks its claim: after the first
// GET, repeat reads go one-sided and none of them reads a stale item.
func TestQuickstart(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	_, line, ok := strings.Cut(out.String(), "client counters: ")
	if !ok {
		t.Fatalf("no client counters line in:\n%s", out.String())
	}
	var hits, invalid, misses int
	if _, err := fmt.Sscanf(line, "one-sided hits=%d invalid=%d message-path=%d", &hits, &invalid, &misses); err != nil {
		t.Fatalf("counters line %q: %v", line, err)
	}
	if hits < 1000 || invalid != 0 {
		t.Fatalf("one-sided hits=%d invalid=%d, want >= 1000 and 0", hits, invalid)
	}
}
