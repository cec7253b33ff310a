package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixtureCase is one self-contained package dropped into a throwaway module
// named hydradb (so the path-scoped checks see the same module-relative
// layout as the real repo). want is the number of findings of the named
// check the package must produce; cases with want > 0 are then re-linted
// with a //hydralint:ignore directive inserted above each finding and must
// go quiet.
type fixtureCase struct {
	name  string
	path  string // file path within the module
	src   string
	check string
	want  int
}

var fixtures = []fixtureCase{
	{
		name:  "clock-now",
		path:  "internal/c1/c1.go",
		check: "clock-discipline",
		want:  1,
		src: `package c1

import "time"

func Deadline() int64 { return time.Now().UnixNano() }
`,
	},
	{
		name:  "clock-sleep",
		path:  "internal/c2/c2.go",
		check: "clock-discipline",
		want:  1,
		src: `package c2

import "time"

func Nap() { time.Sleep(time.Millisecond) }
`,
	},
	{
		name:  "clock-outside-internal-ok",
		path:  "cmd/tool/main.go",
		check: "clock-discipline",
		want:  0,
		src: `package main

import "time"

func main() { println(time.Now().UnixNano()) }
`,
	},
	{
		name:  "shard-go-stmt",
		path:  "internal/shard/go_stmt.go",
		check: "shard-exclusivity",
		want:  1,
		src: `package shard

// The go statement is the shard-exclusivity finding under test.
func SpawnWorker(f func()) { go f() }
`,
	},
	{
		name:  "shard-pipelined-allowlisted",
		path:  "internal/shard/pipelined.go",
		check: "shard-exclusivity",
		want:  0,
		src: `package shard

import "sync"

type pipelinedQueue struct {
	mu sync.Mutex
	ch chan int
}

func (p *pipelinedQueue) Push(v int) {
	p.mu.Lock()
	p.ch <- v
	p.mu.Unlock()
}
`,
	},
	{
		name:  "kv-mutex",
		path:  "internal/kv/store.go",
		check: "shard-exclusivity",
		want:  1,
		src: `package kv

import "sync"

type Store struct {
	mu sync.Mutex
}
`,
	},
	{
		name:  "hashtable-send",
		path:  "internal/hashtable/send.go",
		check: "shard-exclusivity",
		want:  1,
		src: `package hashtable

func Notify(ch chan int) { ch <- 1 }
`,
	},
	{
		name:  "atomic-copy",
		path:  "internal/c3/c3.go",
		check: "atomic-word",
		want:  1,
		src: `package c3

import "sync/atomic"

type Counter struct{ n atomic.Int64 }

var sink Counter

func Copy(c *Counter) { sink = *c }
`,
	},
	{
		name:  "atomic-range",
		path:  "internal/c4/c4.go",
		check: "atomic-word",
		want:  1,
		src: `package c4

import "sync/atomic"

type Slot struct{ v atomic.Uint64 }

func Sum(slots []Slot) (n uint64) {
	for _, s := range slots {
		n += s.v.Load()
	}
	return
}
`,
	},
	{
		name:  "atomic-by-value-param",
		path:  "internal/c5/c5.go",
		check: "atomic-word",
		want:  1,
		src: `package c5

import "sync/atomic"

type Gauge struct{ v atomic.Int64 }

func Observe(g Gauge) int64 { return g.v.Load() }
`,
	},
	{
		name:  "atomic-unsafe-alias",
		path:  "internal/c6/c6.go",
		check: "atomic-word",
		want:  1,
		src: `package c6

import (
	"sync/atomic"
	"unsafe"
)

type W struct{ v atomic.Uint64 }

var P unsafe.Pointer

func Alias(w *W) { P = unsafe.Pointer(&w.v) }
`,
	},
	{
		name:  "atomic-function-style",
		path:  "internal/c6a/c6a.go",
		check: "atomic-word",
		want:  1,
		src: `package c6a

import "sync/atomic"

type Counter struct{ hits uint64 }

func (c *Counter) Inc() { atomic.AddUint64(&c.hits, 1) }
`,
	},
	{
		// Tests may use the function-style API on their own locals.
		name:  "atomic-function-style-test-ok",
		path:  "internal/c6a/c6a_test.go",
		check: "atomic-word",
		want:  0,
		src: `package c6a

import (
	"sync/atomic"
	"testing"
)

func TestInc(t *testing.T) {
	var n uint64
	atomic.AddUint64(&n, 1)
	if atomic.LoadUint64(&n) != 1 {
		t.Fatal("lost add")
	}
}
`,
	},
	{
		name:  "error-blank-discard",
		path:  "internal/c12/c12.go",
		check: "error-discipline",
		want:  1,
		src: `package c12

import "errors"

func fail() error { return errors.New("x") }

func Ignore() { _ = fail() }
`,
	},
	{
		name:  "error-bare-call",
		path:  "internal/c13/c13.go",
		check: "error-discipline",
		want:  1,
		src: `package c13

import "errors"

func fail2() (int, error) { return 0, errors.New("x") }

func Bare() { fail2() }
`,
	},
	{
		name:  "error-builder-ok",
		path:  "internal/c14/c14.go",
		check: "error-discipline",
		want:  0,
		src: `package c14

import "strings"

func Render() string {
	var b strings.Builder
	b.WriteString("hi")
	return b.String()
}
`,
	},

	// --- stale-suppression -------------------------------------------------
	{
		name:  "stale-ignore-flagged",
		path:  "internal/st1/st1.go",
		check: "stale-suppression",
		want:  1,
		src: `package st1

//hydralint:ignore clock-discipline nothing here uses the clock
func Fine() int { return 1 }
`,
	},

	// --- spec-order (payload-before-release flow pass) ---------------------
	{
		name:  "puborder-write-after-publish",
		path:  "internal/pb1/pb1.go",
		check: "spec-order",
		want:  1,
		src: `package pb1

import "sync/atomic"

const Live = 1 // hydralint:publish fixture guardian value

type Shard struct {
	data  []byte          // hydralint:region payload
	words []atomic.Uint64 // hydralint:region guardians
}

// hydralint:offset-source
func (s *Shard) alloc() (int, int) { return 0, 0 }

func (s *Shard) Put(b byte) {
	off, idx := s.alloc()
	s.words[idx].Store(Live)
	s.data[off] = b
}
`,
	},
	{
		name:  "puborder-write-before-publish-ok",
		path:  "internal/pb2/pb2.go",
		check: "spec-order",
		want:  0,
		src: `package pb2

import "sync/atomic"

const Live = 1 // hydralint:publish fixture guardian value

type Shard struct {
	data  []byte          // hydralint:region payload
	words []atomic.Uint64 // hydralint:region guardians
}

// hydralint:offset-source
func (s *Shard) alloc() (int, int) { return 0, 0 }

func (s *Shard) Put(b byte) {
	off, idx := s.alloc()
	s.data[off] = b
	s.words[idx].Store(Live)
}
`,
	},
	{
		name:  "puborder-unpublish-retracts-ok",
		path:  "internal/pb3/pb3.go",
		check: "spec-order",
		want:  0,
		src: `package pb3

import "sync/atomic"

const (
	Live = 1 // hydralint:publish fixture guardian value
	Dead = 2 // hydralint:unpublish fixture retraction value
)

type Shard struct {
	data  []byte          // hydralint:region payload
	words []atomic.Uint64 // hydralint:region guardians
}

// hydralint:offset-source
func (s *Shard) alloc() (int, int) { return 0, 0 }

func (s *Shard) Rollback(b byte) {
	off, idx := s.alloc()
	s.words[idx].Store(Live)
	s.words[idx].Store(Dead)
	s.data[off] = b
}
`,
	},
	{
		name:  "puborder-payload-after-indicator",
		path:  "internal/pb4/pb4.go",
		check: "spec-order",
		want:  1,
		src: `package pb4

import "sync/atomic"

type Box struct {
	data  []byte          // hydralint:region payload
	words []atomic.Uint64 // hydralint:region indicators
}

// hydralint:offset-source
func (b *Box) slot() int { return 0 }

// Deliver releases the indicator before the body lands: seeded bug.
//
// hydralint:publishes
func (b *Box) Deliver(body []byte, ind uint64) {
	idx := b.slot()
	b.words[idx].Store(ind)
	copy(b.data, body)
}
`,
	},

	// --- protocolspec-driven checks ----------------------------------------
	// The fixture module carries its own protocolspec stub (the engine
	// matches the type by package-path suffix), so the spf packages below can
	// declare Spec literals that seed one violation per spec check.
	{
		name:  "protocolspec-stub",
		path:  "internal/protocolspec/spec.go",
		check: "spec-drift",
		want:  0,
		src: `package protocolspec

type Role string

type EdgeKind string

type Word struct {
	Name    string
	Role    Role
	Writers []string
	Why     string
}

type Edge struct {
	Kind     EdgeKind
	From, To string
	Why      string
}

type Guard struct {
	Reader, Bound, Why string
}

type Spec struct {
	Name     string
	Packages []string
	Words    []Word
	Edges    []Edge
	Guards   []Guard
}
`,
	},
	{
		name:  "spec-retract-after-free",
		path:  "internal/spf1/spf1.go",
		check: "spec-order",
		want:  1,
		src: `package spf1

import (
	"sync/atomic"

	"hydradb/internal/protocolspec"
)

const Dead = 2 // hydralint:unpublish fixture retraction value

var spec = protocolspec.Spec{
	Name: "spf1",
	Words: []protocolspec.Word{
		{Name: "hydradb/internal/spf1.Pool.words[]", Role: "guardian"},
	},
	Edges: []protocolspec.Edge{
		{Kind: "retract-before-free", From: "hydradb/internal/spf1.Dead", To: "(*hydradb/internal/spf1.Pool).free"},
	},
}

var _ = spec

type Pool struct {
	words []atomic.Uint64
}

func (p *Pool) free(idx int) {}

// Retire frees the slot before retracting the guardian: seeded bug.
func (p *Pool) Retire(idx int) {
	p.free(idx)
	p.words[idx].Store(Dead)
}
`,
	},
	{
		name:  "spec-uncovered-store",
		path:  "internal/spf2/spf2.go",
		check: "spec-coverage",
		want:  1,
		src: `package spf2

import (
	"sync/atomic"

	"hydradb/internal/protocolspec"
)

var spec = protocolspec.Spec{
	Name: "spf2",
	Words: []protocolspec.Word{
		{Name: "hydradb/internal/spf2.Gate.ready", Role: "ready-word", Writers: []string{"(*hydradb/internal/spf2.Gate).Publish"}},
	},
}

var _ = spec

type Gate struct {
	ready atomic.Uint64
}

func (g *Gate) Publish() { g.ready.Store(1) }

// Sneak stores to the ready word without a covering Writers entry: seeded bug.
func (g *Gate) Sneak() { g.ready.Store(7) }
`,
	},
	{
		name:  "spec-stale-word",
		path:  "internal/spf3/spf3.go",
		check: "spec-drift",
		want:  2,
		src: `package spf3

import (
	"sync/atomic"

	"hydradb/internal/protocolspec"
)

var spec = protocolspec.Spec{
	Name: "spf3",
	Words: []protocolspec.Word{
		{Name: "hydradb/internal/spf3.Flag.live", Role: "pub-word", Writers: []string{"(*hydradb/internal/spf3.Flag).Set"}},
		{Name: "hydradb/internal/spf3.Flag.gone", Role: "pub-word"},
	},
	Edges: []protocolspec.Edge{
		{Kind: "flush-before-flip", From: "hydradb/internal/spf3.Flag.live", To: "hydradb/internal/spf3.Flag.live"},
	},
}

var _ = spec

type Flag struct {
	live atomic.Uint64
}

func (f *Flag) Set() { f.live.Store(1) }
`,
	},
	{
		name:  "spec-guard-removed",
		path:  "internal/spf4/spf4.go",
		check: "spec-guard",
		want:  1,
		src: `package spf4

import "hydradb/internal/protocolspec"

var spec = protocolspec.Spec{
	Name: "spf4",
	Guards: []protocolspec.Guard{
		{Reader: "(*hydradb/internal/spf4.Ring).Poll", Bound: "slotCap"},
	},
}

var _ = spec

type Ring struct {
	slotCap int
}

// Poll lost its torn-read comparison against slotCap: seeded bug.
func (r *Ring) Poll(size int) bool { return size > 0 }
`,
	},
	{
		name:  "spec-watermark-ahead-of-apply",
		path:  "internal/spf6/spf6.go",
		check: "spec-order",
		want:  1,
		src: `package spf6

import (
	"sync/atomic"

	"hydradb/internal/protocolspec"
)

var spec = protocolspec.Spec{
	Name: "spf6",
	Words: []protocolspec.Word{
		{Name: "hydradb/internal/spf6.Log.applied", Role: "commit-word"},
	},
	Edges: []protocolspec.Edge{
		{Kind: "apply-after-replicate", From: "Apply", To: "hydradb/internal/spf6.Log.applied"},
	},
}

var _ = spec

type applier interface{ Apply(seq uint64) }

type Log struct {
	sink    applier
	applied atomic.Uint64
}

func (l *Log) Advance(seq uint64) {
	l.sink.Apply(seq)
	l.applied.Store(seq)
}

// Commit bumps the watermark without applying the record: seeded bug.
func (l *Log) Commit(seq uint64) {
	l.applied.Store(seq)
}
`,
	},

	// --- spec-coverage and spec-drift on one spec's word list ---------------
	// mcfix.go, in a package the spec lists, touches one atomic word no spec
	// declares (spec-coverage), and the spec declares one word nothing
	// touches (spec-drift).
	{
		name:  "spec-stale-declaration",
		path:  "internal/mcfix/spec.go",
		check: "spec-drift",
		want:  1,
		src: `package mcfix

import "hydradb/internal/protocolspec"

var spec = protocolspec.Spec{
	Name:     "mcfix",
	Packages: []string{"hydradb/internal/mcfix"},
	Words: []protocolspec.Word{
		{Name: "hydradb/internal/mcfix.ops", Writers: []string{"hydradb/internal/mcfix.Tick"}},
		{Name: "hydradb/internal/mcfix.gone"},
	},
}

var _ = spec
`,
	},
	{
		name:  "spec-undeclared-word",
		path:  "internal/mcfix/mcfix.go",
		check: "spec-coverage",
		want:  1,
		src: `package mcfix

import "sync/atomic"

var ops atomic.Uint64
var extra atomic.Uint64

func Tick() {
	ops.Add(1)
	extra.Add(1)
}
`,
	},
}

// writeModule materializes the fixture module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module hydradb\n\ngo 1.22\n"
	for path, src := range files {
		full := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestChecksFireOnFixtures(t *testing.T) {
	files := map[string]string{}
	for _, c := range fixtures {
		files[c.path] = c.src
	}
	dir := writeModule(t, files)

	res, err := RunLint(dir, []string{"./..."}, nil, true)
	if err != nil {
		t.Fatalf("RunLint: %v", err)
	}
	diags := res.Diags

	byFile := map[string][]Diagnostic{}
	for _, d := range diags {
		byFile[filepath.ToSlash(d.File)] = append(byFile[filepath.ToSlash(d.File)], d)
		if d.Line <= 0 || d.File == "" {
			t.Errorf("diagnostic without position: %+v", d)
		}
	}

	for _, c := range fixtures {
		got := 0
		for _, d := range byFile[c.path] {
			if d.Check == c.check {
				got++
			}
		}
		if got != c.want {
			t.Errorf("%s: %d %s finding(s) in %s, want %d\nall: %v",
				c.name, got, c.check, c.path, c.want, byFile[c.path])
		}
		// No collateral findings from other checks in any fixture.
		for _, d := range byFile[c.path] {
			if d.Check != c.check {
				t.Errorf("%s: unexpected %s finding: %+v", c.name, d.Check, d)
			}
		}
	}
}

func TestIgnoreDirectiveSuppresses(t *testing.T) {
	files := map[string]string{}
	for _, c := range fixtures {
		files[c.path] = c.src
	}
	dir := writeModule(t, files)

	res, err := RunLint(dir, []string{"./..."}, nil, true)
	if err != nil {
		t.Fatalf("RunLint: %v", err)
	}
	diags := res.Diags
	if len(diags) == 0 {
		t.Fatal("fixture set produced no findings to suppress")
	}

	// Rebuild the module with an ignore directive above every reported
	// line; the tree must then lint clean. Insert bottom-up per file so
	// earlier insertions don't shift later line numbers.
	perFile := map[string][]Diagnostic{}
	for _, d := range diags {
		perFile[filepath.ToSlash(d.File)] = append(perFile[filepath.ToSlash(d.File)], d)
	}
	suppressed := map[string]string{}
	for _, c := range fixtures {
		suppressed[c.path] = c.src
	}
	for path, ds := range perFile {
		lines := strings.Split(suppressed[path], "\n")
		for i := len(ds) - 1; i >= 0; i-- {
			d := ds[i]
			directive := fmt.Sprintf("//hydralint:ignore %s suppressed by self-test", d.Check)
			lines = append(lines[:d.Line-1], append([]string{directive}, lines[d.Line-1:]...)...)
		}
		suppressed[path] = strings.Join(lines, "\n")
	}
	dir2 := writeModule(t, suppressed)

	res2, err := RunLint(dir2, []string{"./..."}, nil, true)
	if err != nil {
		t.Fatalf("RunLint (suppressed): %v", err)
	}
	if len(res2.Diags) != 0 {
		t.Errorf("ignore directives did not silence findings: %v", res2.Diags)
	}
}

func TestChecksFlagRestrictsRun(t *testing.T) {
	files := map[string]string{}
	for _, c := range fixtures {
		files[c.path] = c.src
	}
	dir := writeModule(t, files)

	res, err := RunLint(dir, []string{"./..."}, []string{"clock-discipline"}, true)
	if err != nil {
		t.Fatalf("RunLint: %v", err)
	}
	diags := res.Diags
	if len(diags) != 2 {
		t.Fatalf("clock-discipline-only run: %d findings, want 2 (c1, c2): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Check != "clock-discipline" {
			t.Errorf("unexpected check in restricted run: %+v", d)
		}
	}
}

// TestResolveCheckSelection covers the -checks grammar: names run, -names
// skip, "all" expands, pure-negation spec means all-minus-skipped, the full
// registry collapses to nil (a full run with stale-suppression armed), and
// empty or unknown selections are errors.
func TestResolveCheckSelection(t *testing.T) {
	if got, err := resolveCheckSelection(""); err != nil || got != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", got, err)
	}
	if got, err := resolveCheckSelection("all"); err != nil || got != nil {
		t.Errorf("all = %v, %v; want nil, nil", got, err)
	}

	got, err := resolveCheckSelection("clock-discipline, spec-guard")
	if err != nil {
		t.Fatalf("positive selection: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("positive selection = %v, want 2 names", got)
	}

	got, err = resolveCheckSelection("-spec-guard")
	if err != nil {
		t.Fatalf("negation selection: %v", err)
	}
	if len(got) != len(allChecks)-1 {
		t.Errorf("-spec-guard selected %d checks, want %d", len(got), len(allChecks)-1)
	}
	for _, name := range got {
		if name == "spec-guard" {
			t.Error("-spec-guard did not skip spec-guard")
		}
	}

	// A skip cancels an explicit run of the same name.
	if _, err := resolveCheckSelection("spec-guard,-spec-guard"); err == nil {
		t.Error("self-cancelling selection did not error")
	}
	if _, err := resolveCheckSelection("no-such-check"); err == nil {
		t.Error("unknown check name did not error")
	}
	if _, err := resolveCheckSelection("-no-such-check"); err == nil {
		t.Error("unknown skipped check name did not error")
	}

	// all,-name: the documented way to run a full sweep minus one pass.
	got, err = resolveCheckSelection("all,-stale-suppression")
	if err != nil {
		t.Fatalf("all,-stale-suppression: %v", err)
	}
	if len(got) != len(allChecks)-1 {
		t.Errorf("all,-stale-suppression = %d checks, want %d", len(got), len(allChecks)-1)
	}
}

// TestSuppressionCensusAndBudget covers the ratchet: the census counts only
// comments that start with a marker, and checkBudget fails on growth,
// notes shrinkage, and accepts equality.
func TestSuppressionCensusAndBudget(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"internal/b1/b1.go": `package b1

import "time"

// The prose mention of hydralint:ignore below must not count; only the
// leading directives do.

//hydralint:ignore clock-discipline startup banner timestamp
func Banner() int64 { return time.Now().UnixNano() }
`,
	})
	res, err := RunLint(dir, []string{"./..."}, nil, true)
	if err != nil {
		t.Fatalf("RunLint: %v", err)
	}
	got := res.Suppressions
	bannerKey := ignoreKey{Check: "clock-discipline", Pkg: "hydradb/internal/b1", Symbol: "Banner"}
	want := SuppressionCounts{Ignore: map[ignoreKey]int{bannerKey: 1}}
	if !reflect.DeepEqual(got.Ignore, want.Ignore) {
		t.Fatalf("census = %+v, want %+v", got, want)
	}

	if fails, _ := checkBudget(got, want); len(fails) != 0 {
		t.Errorf("equal budget must pass, got failures: %v", fails)
	}
	if fails, _ := checkBudget(got, SuppressionCounts{Ignore: map[ignoreKey]int{}}); len(fails) != 1 {
		t.Errorf("unknown ignore key must fail once, got: %v", fails)
	}
	loose := SuppressionCounts{Ignore: map[ignoreKey]int{bannerKey: 5}}
	if fails, notes := checkBudget(got, loose); len(fails) != 0 || len(notes) != 1 {
		t.Errorf("loose budget: fails=%v notes=%v, want 0 fails / 1 note", fails, notes)
	}

	// parseBudget round-trips formatBudget.
	path := filepath.Join(t.TempDir(), ".hydralint-budget")
	if err := os.WriteFile(path, []byte(formatBudget(got)), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := parseBudget(path)
	if err != nil {
		t.Fatalf("parseBudget: %v", err)
	}
	if !reflect.DeepEqual(back.Ignore, got.Ignore) {
		t.Errorf("round trip = %+v, want %+v", back, got)
	}
}

// TestBudgetRatchetEdgeCases pins the behaviors the keyed ratchet exists for:
// a suppression that moves between files under the same symbol is free, a
// renamed check shows up as an uncovered key and fails, and a version-1 or
// missing baseline file is an error rather than a silently-passing ratchet.
func TestBudgetRatchetEdgeCases(t *testing.T) {
	key := func(check, sym string) ignoreKey {
		return ignoreKey{Check: check, Pkg: "hydradb/internal/kv", Symbol: sym}
	}

	t.Run("moved across files", func(t *testing.T) {
		// Same check+package+symbol, different file: the census has no file
		// axis at all, so the key is identical and the ratchet holds.
		baseline := SuppressionCounts{Ignore: map[ignoreKey]int{key("error-discipline", "(*Store).Put"): 1}}
		current := SuppressionCounts{Ignore: map[ignoreKey]int{key("error-discipline", "(*Store).Put"): 1}}
		if fails, notes := checkBudget(current, baseline); len(fails) != 0 || len(notes) != 0 {
			t.Errorf("moved suppression: fails=%v notes=%v, want none", fails, notes)
		}
	})

	t.Run("rule renamed", func(t *testing.T) {
		baseline := SuppressionCounts{Ignore: map[ignoreKey]int{key("error-discipline", "(*Store).Put"): 1}}
		current := SuppressionCounts{Ignore: map[ignoreKey]int{key("errors", "(*Store).Put"): 1}}
		fails, notes := checkBudget(current, baseline)
		if len(fails) != 1 || !strings.Contains(fails[0], "errors") {
			t.Errorf("renamed rule must fail as an uncovered key, got fails=%v", fails)
		}
		// The old key now counts zero against a baseline of one — a
		// tightening note, not a failure.
		if len(notes) != 1 {
			t.Errorf("renamed rule: notes=%v, want the stale old key noted", notes)
		}
	})

	t.Run("v1 file rejected", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), ".hydralint-budget")
		if err := os.WriteFile(path, []byte("ignore 2\nholds 0\naliases 0\nplainread 0\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := parseBudget(path)
		if err == nil || !strings.Contains(err.Error(), "-budget-write") {
			t.Errorf("parseBudget(v1) = %v, want an error that says to regenerate with -budget-write", err)
		}
	})

	t.Run("budget file missing", func(t *testing.T) {
		if _, err := parseBudget(filepath.Join(t.TempDir(), "no-such-budget")); err == nil {
			t.Error("parseBudget on a missing file must error, got nil")
		}
	})

	t.Run("malformed keyed line", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), ".hydralint-budget")
		if err := os.WriteFile(path, []byte("version 2\nignore error-discipline hydradb/internal/kv 1\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := parseBudget(path); err == nil {
			t.Error("parseBudget on a 4-field ignore line must error, got nil")
		}
	})
}

// TestEmitters validates the -json and SARIF output shapes.
func TestEmitters(t *testing.T) {
	diags := []Diagnostic{
		{File: "internal/a/a.go", Line: 3, Col: 2, Check: "spec-order", Msg: "boom"},
	}

	var jbuf strings.Builder
	if err := writeJSON(&jbuf, diags); err != nil {
		t.Fatalf("writeJSON: %v", err)
	}
	var round jsonReport
	if err := json.Unmarshal([]byte(jbuf.String()), &round); err != nil {
		t.Fatalf("json output does not parse: %v\n%s", err, jbuf.String())
	}
	if round.Version != jsonSchemaVersion {
		t.Errorf("json envelope version = %d, want %d", round.Version, jsonSchemaVersion)
	}
	if len(round.Findings) != 1 || round.Findings[0] != diags[0] {
		t.Errorf("json round trip = %+v, want %+v", round.Findings, diags)
	}
	jbuf.Reset()
	if err := writeJSON(&jbuf, nil); err != nil {
		t.Fatal(err)
	}
	var empty jsonReport
	if err := json.Unmarshal([]byte(jbuf.String()), &empty); err != nil {
		t.Fatalf("empty json output does not parse: %v", err)
	}
	if empty.Findings == nil || len(empty.Findings) != 0 {
		t.Errorf("empty run must emit findings: [], got %q", jbuf.String())
	}

	var sbuf strings.Builder
	if err := writeSARIF(&sbuf, diags); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(sbuf.String()), &log); err != nil {
		t.Fatalf("sarif output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("sarif envelope wrong: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "hydralint" || len(run.Tool.Driver.Rules) != len(allChecks) {
		t.Errorf("driver = %q with %d rules, want hydralint with %d",
			run.Tool.Driver.Name, len(run.Tool.Driver.Rules), len(allChecks))
	}
	if len(run.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(run.Results))
	}
	r := run.Results[0]
	loc := r.Locations[0].PhysicalLocation
	if r.RuleID != "spec-order" || r.Level != "error" ||
		loc.ArtifactLocation.URI != "internal/a/a.go" || loc.Region.StartLine != 3 {
		t.Errorf("sarif result wrong: %+v", r)
	}
	if r.PartialFingerprints["hydralintFinding/v1"] == "" {
		t.Errorf("sarif result missing partial fingerprint: %+v", r)
	}
	// The fingerprint is nominal: shifting the finding's position must not
	// change it, while changing the message must.
	moved := diags[0]
	moved.File, moved.Line = "internal/a/b.go", 99
	if fingerprint(moved) != fingerprint(diags[0]) {
		t.Errorf("fingerprint changed when only the position moved")
	}
	reworded := diags[0]
	reworded.Msg = "different"
	if fingerprint(reworded) == fingerprint(diags[0]) {
		t.Errorf("fingerprint identical across different messages")
	}

	// Spec-attributed findings carry a second fingerprint keyed on the spec
	// name instead of the check name, so code-scanning dedup survives a pass
	// rename; non-spec findings must not grow one.
	if _, ok := r.PartialFingerprints["hydralintFinding/v2"]; ok {
		t.Errorf("non-spec finding must not carry a spec fingerprint: %+v", r)
	}
	specd := Diagnostic{
		File: "internal/kv/store.go", Line: 9, Col: 1,
		Check: "spec-order", Spec: "kv-guardian", Pkg: "hydradb/internal/kv",
		Symbol: "(*Store).Put", Msg: "boom",
	}
	sbuf.Reset()
	if err := writeSARIF(&sbuf, []Diagnostic{specd}); err != nil {
		t.Fatalf("writeSARIF: %v", err)
	}
	var slog sarifLog
	if err := json.Unmarshal([]byte(sbuf.String()), &slog); err != nil {
		t.Fatalf("sarif output does not parse: %v", err)
	}
	sres := slog.Runs[0].Results[0]
	if sres.PartialFingerprints["hydralintFinding/v2"] == "" {
		t.Errorf("spec-attributed finding missing spec fingerprint: %+v", sres)
	}
	renamed := specd
	renamed.Check = "publication-order"
	if specFingerprint(renamed) != specFingerprint(specd) {
		t.Errorf("spec fingerprint changed across a pass rename")
	}
	otherSpec := specd
	otherSpec.Spec = "mailbox-ring"
	if specFingerprint(otherSpec) == specFingerprint(specd) {
		t.Errorf("spec fingerprint identical across different specs")
	}
}

// TestRepoIsClean is the dogfooding gate: the repository this linter ships
// in must satisfy its own checks.
func TestRepoIsClean(t *testing.T) {
	res, err := RunLint("../..", []string{"./..."}, nil, true)
	if err != nil {
		t.Fatalf("RunLint on repo: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("repo finding: %s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Msg, d.Check)
	}
}

// copyRepoGoTree clones the repo's Go sources (and go.mod) into a temp dir so
// a test can deliberately corrupt a file and lint the result.
func copyRepoGoTree(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	root := filepath.Clean("../..")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".mod" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, src, 0o644)
	})
	if err != nil {
		t.Fatalf("copy repo: %v", err)
	}
	return dst
}

// TestFootprintDriftFailsLint desyncs a checked-in protocolspec.Spec from
// the code by renaming the replication spec's one word, the secondary's
// applied watermark, and asserts the lint fails the drifted tree in both
// directions, under one check per direction: the real word, in a package
// the spec lists, is declared by no spec (spec-coverage), and the renamed
// one names nothing (spec-drift). The drifted file reaches the lint through
// a go-command overlay on the real tree, so only its package and dependents
// are rebuilt.
func TestFootprintDriftFailsLint(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	replace := map[string]string{}
	for i, e := range []struct{ file, real, bogus string }{
		{"internal/replication/protocol.go", `"hydradb/internal/replication.Secondary.applied"`, `"hydradb/internal/replication.Secondary.retired"`},
	} {
		path := filepath.Join(root, filepath.FromSlash(e.file))
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		drifted := strings.ReplaceAll(string(src), e.real, e.bogus)
		if drifted == string(src) {
			t.Fatalf("%s no longer declares %s; update this test's drift target", e.file, e.real)
		}
		repl := filepath.Join(tmp, fmt.Sprintf("drift%d.go", i))
		if err := os.WriteFile(repl, []byte(drifted), 0o644); err != nil {
			t.Fatal(err)
		}
		replace[path] = repl
	}
	overlay := filepath.Join(tmp, "overlay.json")
	js, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, js, 0o644); err != nil {
		t.Fatal(err)
	}

	res, err := runLint(root, []string{"./..."}, []string{"spec-coverage", "spec-drift"}, true, overlay)
	if err != nil {
		t.Fatalf("RunLint on drifted tree: %v", err)
	}
	want := []struct{ check, msg string }{
		{"spec-coverage", "atomic word hydradb/internal/replication.Secondary.applied in hydradb/internal/replication, a package spec replication-ready lists, is declared by no spec"},
		{"spec-drift", "declares atomic word hydradb/internal/replication.Secondary.retired, but no loaded package accesses it"},
	}
	got := make([]int, len(want))
	for _, d := range res.Diags {
		matched := false
		for i, w := range want {
			if d.Check == w.check && strings.Contains(d.Msg, w.msg) {
				got[i]++
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %+v", d)
		}
	}
	for i, w := range want {
		if got[i] != 1 {
			t.Errorf("%d %s findings matching %q, want 1", got[i], w.check, w.msg)
		}
	}
}

// TestSpecOrderGolden pins the spec-order flow pass to the exact findings
// the retired hardcoded publication-order pass produced on the pb fixtures
// (captured verbatim from the pre-refactor binary before it was deleted):
// the move to the spec-driven engine must not lose, move, or reword a
// single finding.
func TestSpecOrderGolden(t *testing.T) {
	files := map[string]string{}
	for _, c := range fixtures {
		if strings.HasPrefix(c.path, "internal/pb") {
			files[c.path] = c.src
		}
	}
	dir := writeModule(t, files)

	res, err := RunLint(dir, []string{"./..."}, []string{"spec-order"}, true)
	if err != nil {
		t.Fatalf("RunLint: %v", err)
	}
	want := []Diagnostic{
		{
			File: "internal/pb1/pb1.go", Line: 18, Col: 2,
			Check: "spec-order", Pkg: "hydradb/internal/pb1", Symbol: "(*Shard).Put",
			Msg: "store into region memory after the item was published at line 17; sequence all payload writes before the release store, or store the hydralint:unpublish constant first",
		},
		{
			File: "internal/pb4/pb4.go", Line: 19, Col: 2,
			Check: "spec-order", Pkg: "hydradb/internal/pb4", Symbol: "(*Box).Deliver",
			Msg: "copy into the payload after the indicator store in a hydralint:publishes function; the payload must be complete before the indicator is released",
		},
	}
	got := make([]Diagnostic, len(res.Diags))
	for i, d := range res.Diags {
		d.File = filepath.ToSlash(d.File)
		got[i] = d
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spec-order drifted from the publication-order golden:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestReadmeSyncChecksTable keeps the README check table generated: the
// exact markdown `hydralint -listchecks` prints must appear verbatim in
// README.md, so adding or rewording a check forces the docs to follow.
func TestReadmeSyncChecksTable(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	table := checkTableMarkdown()
	if !strings.Contains(string(src), table) {
		t.Errorf("README.md check table is out of date; paste the output of `hydralint -listchecks`:\n%s", table)
	}
}
