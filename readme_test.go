package hydradb_test

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestReadmeListsEveryCommand keeps README.md's command-line tool table in
// step with cmd/: the table lists every command directory exactly once and
// nothing else, so adding, renaming or deleting a command forces the docs
// to follow.
func TestReadmeListsEveryCommand(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(src), "| tool | purpose |\n|---|---|\n")
	if !ok {
		t.Fatal("README.md has no `| tool | purpose |` table")
	}
	var listed []string
	for _, row := range strings.Split(table, "\n") {
		name, ok := strings.CutPrefix(row, "| `cmd/")
		if !ok {
			break
		}
		name, _, _ = strings.Cut(name, "`")
		listed = append(listed, name)
	}
	slices.Sort(listed)

	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if !slices.Equal(listed, dirs) {
		t.Errorf("README.md tool table lists %v, cmd/ holds %v", listed, dirs)
	}
}
