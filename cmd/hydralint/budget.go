package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The suppression ratchet. The linter's one escape hatch, the ignore
// directive, is counted repo-wide and compared against a checked-in
// baseline (.hydralint-budget). A run whose count
// exceeds the baseline fails: new suppressions need a reviewer to consciously
// raise the budget in the same change. A run whose count is lower only
// reports that the baseline can be tightened; `hydralint -budget-write`
// regenerates the file. The stale-suppression check closes the loop from the
// other side by flagging ignore directives that no longer filter anything.
//
// The baseline (format version 2) keys hydralint:ignore directives by
// check + package + enclosing symbol rather than counting one repo-wide
// total. Moving a suppression to another file or line inside the same
// declaration changes nothing; adding one to a new symbol — or renaming the
// check it suppresses — shows up as a new key the baseline does not cover
// and fails the ratchet.

// ignoreKey identifies one budgeted suppression site nominally.
type ignoreKey struct {
	Check  string
	Pkg    string
	Symbol string // enclosing top-level declaration; "-" at file scope
}

func (k ignoreKey) String() string {
	return k.Check + " " + k.Pkg + " " + k.Symbol
}

// SuppressionCounts is the repo-wide census of ignore directives.
type SuppressionCounts struct {
	Ignore map[ignoreKey]int
}

func (c SuppressionCounts) Total() int {
	n := 0
	for _, v := range c.Ignore {
		n += v
	}
	return n
}

// countSuppressions counts directive comments across all loaded files. The
// ignore directives are keyed by (check, package, enclosing symbol); a
// directive naming several checks budgets each. Only comments that
// *start* with a marker count — prose that mentions a marker mid-sentence
// does not. Files shared between a package and its test variant are counted
// once.
func countSuppressions(pkgs []*Package) SuppressionCounts {
	c := SuppressionCounts{Ignore: map[ignoreKey]int{}}
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			name := p.Fset.Position(f.Package).Filename
			if seen[name] {
				continue
			}
			seen[name] = true
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					text := commentText(cm)
					if rest, ok := directiveRest(text, "hydralint:ignore"); ok {
						fields := strings.Fields(rest)
						if len(fields) == 0 {
							continue
						}
						sym := enclosingSymbol(p, cm.Pos())
						if sym == "" {
							sym = "-"
						}
						for _, check := range strings.Split(fields[0], ",") {
							c.Ignore[ignoreKey{Check: check, Pkg: p.ImportPath, Symbol: sym}]++
						}
					}
				}
			}
		}
	}
	return c
}

// parseBudget reads a baseline file ('#' comments and blank lines allowed):
// a "version 2" line and keyed entries "ignore <check> <pkg> <symbol>
// <count>". A missing file, or one without the version line, is an error:
// the ratchet cannot hold against nothing — regenerate the baseline with
// -budget-write.
func parseBudget(path string) (SuppressionCounts, error) {
	const noVersion = `no "version 2" line before the entries; the version-1 format is no longer read (regenerate with -budget-write)`
	c := SuppressionCounts{Ignore: map[ignoreKey]int{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("suppression baseline unreadable (regenerate with -budget-write): %w", err)
	}
	versioned := false
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		bad := func(why string) (SuppressionCounts, error) {
			return c, fmt.Errorf("%s:%d: %s: %q", path, i+1, why, line)
		}
		if !versioned && fields[0] != "version" {
			return bad(noVersion)
		}
		switch fields[0] {
		case "version":
			if len(fields) != 2 || fields[1] != "2" {
				return bad("unsupported budget format version (regenerate with -budget-write)")
			}
			versioned = true
		case "ignore":
			if len(fields) != 5 {
				return bad("malformed line (want \"ignore <check> <pkg> <symbol> <count>\")")
			}
			n, err := strconv.Atoi(fields[4])
			if err != nil {
				return bad("bad count")
			}
			c.Ignore[ignoreKey{Check: fields[1], Pkg: fields[2], Symbol: fields[3]}] += n
		default:
			return bad("unknown category")
		}
	}
	if !versioned {
		return c, fmt.Errorf("%s: %s", path, noVersion)
	}
	return c, nil
}

// formatBudget renders the baseline file content (format version 2, keyed
// ignores sorted for a stable diff).
func formatBudget(c SuppressionCounts) string {
	var b strings.Builder
	b.WriteString("# hydralint suppression budget — the ratchet only goes down.\n")
	b.WriteString("# Regenerate with: go run ./cmd/hydralint -budget-write .hydralint-budget ./...\n")
	b.WriteString("# ignore entries are keyed by check + package + enclosing symbol, so moving\n")
	b.WriteString("# a suppression between files is free; adding one to a new symbol is not.\n")
	b.WriteString("version 2\n")
	keys := make([]ignoreKey, 0, len(c.Ignore))
	for k := range c.Ignore {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		fmt.Fprintf(&b, "ignore %s %d\n", k, c.Ignore[k])
	}
	return b.String()
}

// checkBudget compares the current census against the baseline. It returns
// human-readable failures (count exceeded, or a key the baseline does not
// know) and notes (budget can be tightened); an empty failures slice means
// the ratchet holds.
func checkBudget(current, baseline SuppressionCounts) (failures, notes []string) {
	for k, n := range current.Ignore {
		allowed, known := baseline.Ignore[k]
		switch {
		case !known:
			failures = append(failures, fmt.Sprintf(
				"suppression budget exceeded: hydralint:ignore %s in %s (%s) is not in the baseline — a new or renamed suppression needs the budget consciously raised in the same change",
				k.Check, k.Pkg, k.Symbol))
		case n > allowed:
			failures = append(failures, fmt.Sprintf(
				"suppression budget exceeded: %d hydralint:ignore %s in %s (%s), baseline allows %d",
				n, k.Check, k.Pkg, k.Symbol, allowed))
		}
	}
	for k, allowed := range baseline.Ignore {
		if n := current.Ignore[k]; n < allowed {
			notes = append(notes, fmt.Sprintf(
				"budget for hydralint:ignore %s in %s (%s) can be tightened: %d in tree, baseline says %d (run -budget-write)",
				k.Check, k.Pkg, k.Symbol, n, allowed))
		}
	}
	sort.Strings(failures)
	sort.Strings(notes)
	return failures, notes
}
