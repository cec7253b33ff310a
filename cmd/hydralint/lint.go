package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Check is one named rule. Run inspects a single package; RunProgram (for
// whole-program rules like spec-coverage) sees every loaded package at once
// and reports through per-package reporters. A check sets one or the other.
// Short is the one-line blurb -listchecks renders into README's check
// table (a sync test keeps the two identical).
type Check struct {
	Name       string
	Desc       string
	Short      string
	Run        func(p *Package, r *Reporter)
	RunProgram func(prog *Program, rep func(*Package) *Reporter)
}

// allChecks is the registry, in the order findings group in the output.
var allChecks = []Check{
	{
		Name:  "clock-discipline",
		Desc:  "no direct time.Now/Since/Sleep in internal/ data-plane code; use timing.Clock",
		Short: "no wall-clock reads/sleeps in data-plane packages",
		Run:   runClockDiscipline,
	},
	{
		Name:  "shard-exclusivity",
		Desc:  "no go statements, mutexes, or channel sends on the shard hot path (§4.1.1)",
		Short: "no locks or goroutine launches on the shard hot path",
		Run:   runShardExclusivity,
	},
	{
		Name:  "atomic-word",
		Desc:  "values containing sync/atomic types must not be copied, ranged over, or aliased; no function-style sync/atomic calls outside tests",
		Short: "atomic words are typed values, never copied, ranged over, or aliased",
		Run:   runAtomicWord,
	},
	{
		Name:  "error-discipline",
		Desc:  "no discarded errors in internal/ packages",
		Short: "no discarded errors in `internal/`",
		Run:   runErrorDiscipline,
	},
	{
		Name:       "spec-order",
		Desc:       "the happens-before edges declared in protocolspec.Spec literals — payload-before-release, retract-before-free, apply-after-replicate — hold on every code path (spec-driven flow pass)",
		Short:      "declared protocol edges hold on every code path",
		RunProgram: runSpecOrder,
	},
	{
		Name:       "spec-coverage",
		Desc:       "every atomic store to a word declared in a protocolspec.Spec must be sanctioned by a Writers entry, a covering edge, or a publish/unpublish constant, and every atomic word of a package a spec lists must be declared by some spec (whole-program)",
		Short:      "every store to a spec'd word is sanctioned by its spec; a spec'd package has no undeclared word",
		RunProgram: runSpecCoverage,
	},
	{
		Name:       "spec-drift",
		Desc:       "protocolspec.Spec declarations must name only atomic words, functions, marker constants, and edge kinds that still exist (whole-program)",
		Short:      "specs name only words and functions that exist",
		RunProgram: runSpecDrift,
	},
	{
		Name:       "spec-guard",
		Desc:       "torn-read guards declared in protocolspec.Spec must still be enforced by the named readers (whole-program)",
		Short:      "declared torn-read guards still hold",
		RunProgram: runSpecGuard,
	},
	{
		Name:  "stale-suppression",
		Desc:  "hydralint:ignore directives that no longer match a finding must be removed (ratchet)",
		Short: "every `ignore` still filters a finding",
		// Runs built-in at the end of a full RunLint; no Run/RunProgram.
	},
}

// checkTableMarkdown renders the README check table from the registry;
// -listchecks prints it and a test pins README to it verbatim.
func checkTableMarkdown() string {
	var b strings.Builder
	b.WriteString("| check | enforces |\n|---|---|\n")
	for _, c := range allChecks {
		fmt.Fprintf(&b, "| `%s` | %s |\n", c.Name, c.Short)
	}
	return b.String()
}

func knownCheck(name string) bool {
	for _, c := range allChecks {
		if c.Name == name {
			return true
		}
	}
	return false
}

// resolveCheckSelection parses a -checks spec into the list RunLint runs.
// Entries are check names to run, `-name` entries are checks to skip, and
// `all` names the full registry. Positive names select exactly that subset;
// a spec of only negations (with an optional `all`) means "everything but
// these". A selection that resolves to the full registry returns nil, which
// RunLint treats as a full run (enabling the stale-suppression pass — a
// restricted run cannot tell whether a directive is truly unused).
func resolveCheckSelection(spec string) ([]string, error) {
	want := map[string]bool{}
	skip := map[string]bool{}
	positive := false
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		switch {
		case entry == "":
			continue
		case entry == "all":
			positive = true
			for _, c := range allChecks {
				want[c.Name] = true
			}
		case strings.HasPrefix(entry, "-"):
			name := entry[1:]
			if !knownCheck(name) {
				return nil, fmt.Errorf("unknown check %q (use -list)", name)
			}
			skip[name] = true
		default:
			if !knownCheck(entry) {
				return nil, fmt.Errorf("unknown check %q (use -list)", entry)
			}
			positive = true
			want[entry] = true
		}
	}
	if !positive {
		for _, c := range allChecks {
			want[c.Name] = true
		}
	}
	var only []string
	for _, c := range allChecks {
		if want[c.Name] && !skip[c.Name] {
			only = append(only, c.Name)
		}
	}
	if len(only) == len(allChecks) {
		return nil, nil // the full registry: a full run
	}
	if len(only) == 0 {
		return nil, fmt.Errorf("-checks selection %q selects no checks", spec)
	}
	return only, nil
}

// Diagnostic is one reported finding. Pkg and Symbol identify the finding
// nominally (import path + enclosing declaration), so downstream consumers —
// the budget ratchet, SARIF fingerprints — stay stable when code moves
// between files or lines.
type Diagnostic struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Col    int    `json:"col"`
	Check  string `json:"check"`
	Pkg    string `json:"pkg"`
	Symbol string `json:"symbol"`
	Msg    string `json:"msg"`
	// Spec names the protocolspec.Spec a spec-driven finding verifies
	// (empty for marker-implied protocols and non-spec checks). SARIF
	// emits it as an extra fingerprint so code-scanning dedup survives
	// check renames.
	Spec string `json:"spec,omitempty"`
}

// directive is one hydralint:ignore suppression for one check name. used is
// set when a finding is filtered through it; a full run reports directives
// that stayed unused (stale-suppression), so suppressions can only ratchet
// down as checks and code improve.
type directive struct {
	pos  token.Pos
	name string
	used bool
}

// Reporter collects diagnostics, filtering ones a `//hydralint:ignore`
// directive suppresses. A directive suppresses the named check(s) on its own
// line (trailing comment) and on the line directly below (comment above the
// offending statement). Multiple checks may be listed comma-separated.
type Reporter struct {
	fset *token.FileSet
	pkg  *Package // findings are attributed to this package's symbols
	base string   // paths are reported relative to this directory
	// suppressed maps file -> line -> check name -> the directive record
	// (shared between the directive's own line and the line below).
	suppressed map[string]map[int]map[string]*directive
	directives []*directive
	diags      []Diagnostic
}

func newReporter(p *Package, base string) *Reporter {
	return &Reporter{fset: p.Fset, pkg: p, base: base, suppressed: map[string]map[int]map[string]*directive{}}
}

// enclosingSymbol names the top-level declaration containing pos:
// "(*Mailbox).WriteVia" for methods, "RunLint" for functions, the first
// declared name for var/const/type groups, "" outside any declaration. The
// rendering is file- and line-independent, which is what makes budget keys
// and SARIF fingerprints survive refactors that only move code.
func enclosingSymbol(p *Package, pos token.Pos) string {
	for _, f := range p.Files {
		if pos < f.FileStart || pos > f.FileEnd {
			continue
		}
		for _, d := range f.Decls {
			start := d.Pos()
			// A directive above a declaration is its doc comment; attribute
			// it to the declaration, not to file scope.
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Doc != nil {
					start = d.Doc.Pos()
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					start = d.Doc.Pos()
				}
			}
			if pos < start || pos > d.End() {
				continue
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				return funcSymbol(d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						return spec.Name.Name
					case *ast.ValueSpec:
						if len(spec.Names) > 0 {
							return spec.Names[0].Name
						}
					}
				}
			}
		}
		return ""
	}
	return ""
}

// funcSymbol renders a FuncDecl's nominal name, including the receiver type.
func funcSymbol(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star := ""
	if se, ok := t.(*ast.StarExpr); ok {
		star, t = "*", se.X
	}
	name := "?"
	switch t := t.(type) {
	case *ast.Ident:
		name = t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := t.X.(*ast.Ident); ok {
			name = id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			name = id.Name
		}
	}
	return "(" + star + name + ")." + fd.Name.Name
}

// commentText strips the comment markers and surrounding space from a
// comment, leaving the text a directive match runs against.
func commentText(c *ast.Comment) string {
	return strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
}

// directiveRest strips marker from the front of a comment's text, requiring a
// word boundary after it, so prose like "the hydralint:ignore, ..." mid-doc
// never reads as a directive. ok only when the text begins with the marker
// followed by end-of-comment or whitespace.
func directiveRest(text, marker string) (string, bool) {
	rest, found := strings.CutPrefix(text, marker)
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", false
	}
	return strings.TrimSpace(strings.TrimSuffix(rest, "*/")), true
}

// indexSuppressions scans a file's comments for hydralint:ignore directives.
func (r *Reporter) indexSuppressions(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := directiveRest(commentText(c), "hydralint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue // malformed: no check named, suppresses nothing
			}
			pos := r.fset.Position(c.Pos())
			byLine := r.suppressed[pos.Filename]
			if byLine == nil {
				byLine = map[int]map[string]*directive{}
				r.suppressed[pos.Filename] = byLine
			}
			for _, name := range strings.Split(fields[0], ",") {
				d := &directive{pos: c.Pos(), name: name}
				r.directives = append(r.directives, d)
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := byLine[line]
					if set == nil {
						set = map[string]*directive{}
						byLine[line] = set
					}
					set[name] = d
				}
			}
		}
	}
}

func (r *Reporter) report(check string, pos token.Pos, format string, args ...any) {
	r.reportSpec(check, "", pos, format, args...)
}

// reportSpec is report with the finding attributed to a named
// protocolspec.Spec; suppression directives still match by check name.
func (r *Reporter) reportSpec(check, spec string, pos token.Pos, format string, args ...any) {
	p := r.fset.Position(pos)
	if byLine, ok := r.suppressed[p.Filename]; ok {
		if d, ok := byLine[p.Line][check]; ok && d != nil {
			d.used = true
			return
		}
	}
	file := p.Filename
	if rel, err := filepath.Rel(r.base, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	d := Diagnostic{
		File:  file,
		Line:  p.Line,
		Col:   p.Column,
		Check: check,
		Msg:   fmt.Sprintf(format, args...),
		Spec:  spec,
	}
	if r.pkg != nil {
		d.Pkg = r.pkg.ImportPath
		d.Symbol = enclosingSymbol(r.pkg, pos)
	}
	r.diags = append(r.diags, d)
}

// reportStale emits a stale-suppression finding for every directive that
// filtered nothing. Directives naming stale-suppression itself are exempt
// (they are consumed by this very pass).
func (r *Reporter) reportStale() {
	for _, d := range r.directives {
		if d.used || d.name == "stale-suppression" {
			continue
		}
		r.report("stale-suppression", d.pos,
			"hydralint:ignore %s matches no finding; remove the stale suppression (the budget ratchet only goes down)", d.name)
	}
}

// Result is a full lint run: the findings plus the suppression census the
// budget ratchet compares against its checked-in baseline.
type Result struct {
	Diags        []Diagnostic
	Suppressions SuppressionCounts
}

// RunLint loads the packages matched by patterns (relative to dir), runs the
// selected checks (nil/empty = all), and returns findings sorted by position.
// With tests set, _test.go files are linted too (checks that only govern
// production code skip them individually via Package.isTestFile). The
// stale-suppression pass runs only on a full run (all checks, tests on),
// since a restricted run cannot tell whether a directive is truly unused.
func RunLint(dir string, patterns []string, only []string, tests bool) (*Result, error) {
	return runLint(dir, patterns, only, tests, "")
}

// runLint is RunLint over a go-command overlay file (see load).
func runLint(dir string, patterns []string, only []string, tests bool, overlay string) (*Result, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := load(abs, patterns, tests, overlay)
	if err != nil {
		return nil, err
	}
	prog := newProgram(pkgs)

	selected := allChecks
	if len(only) > 0 {
		want := map[string]bool{}
		for _, n := range only {
			want[n] = true
		}
		selected = nil
		for _, c := range allChecks {
			if want[c.Name] {
				selected = append(selected, c)
			}
		}
	}

	reporters := map[*Package]*Reporter{}
	rep := func(p *Package) *Reporter {
		r := reporters[p]
		if r == nil {
			r = newReporter(p, abs)
			for _, f := range p.Files {
				r.indexSuppressions(f)
			}
			reporters[p] = r
		}
		return r
	}
	for _, p := range pkgs {
		rep(p)
	}

	for _, c := range selected {
		if c.Run != nil {
			for _, p := range pkgs {
				c.Run(p, rep(p))
			}
		}
		if c.RunProgram != nil {
			c.RunProgram(prog, rep)
		}
	}

	if len(only) == 0 && tests {
		for _, p := range pkgs {
			rep(p).reportStale()
		}
	}

	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, reporters[p].diags...)
	}
	// Deterministic total order: position first, then check and message, so
	// two findings on the same line (two flagged arguments of one call) never
	// flap between runs and -json/-sarif output is byte-stable.
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		if diags[i].Check != diags[j].Check {
			return diags[i].Check < diags[j].Check
		}
		return diags[i].Msg < diags[j].Msg
	})
	return &Result{Diags: diags, Suppressions: countSuppressions(pkgs)}, nil
}
