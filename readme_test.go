package hydradb_test

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestReadmeListsEveryCommand keeps README.md's command-line tool table in
// step with cmd/, and its example table with examples/: each table lists
// every directory exactly once and nothing else, so adding, renaming or
// deleting a command or an example forces the docs to follow.
func TestReadmeListsEveryCommand(t *testing.T) {
	src, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ header, dir string }{
		{"| tool | purpose |\n|---|---|\n", "cmd"},
		{"| example | what it shows |\n|---|---|\n", "examples"},
	} {
		_, table, ok := strings.Cut(string(src), tc.header)
		if !ok {
			t.Fatalf("README.md has no %q table", tc.header)
		}
		var listed []string
		for _, row := range strings.Split(table, "\n") {
			name, ok := strings.CutPrefix(row, "| `"+tc.dir+"/")
			if !ok {
				break
			}
			name, _, _ = strings.Cut(name, "`")
			listed = append(listed, name)
		}
		slices.Sort(listed)

		entries, err := os.ReadDir(tc.dir)
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
			t.Errorf("README.md table lists %v, %s/ holds %v", listed, tc.dir, dirs)
		}
	}
}
