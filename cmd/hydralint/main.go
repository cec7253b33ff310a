// Command hydralint is HydraDB's project linter: a stdlib-only static
// analyzer (go/parser + go/types) that enforces the paper's structural
// invariants at review time, before the hydradebug runtime sanitizers ever
// get a chance to fire. The protocol checks are driven by the
// protocolspec.Spec declarations; the spec-order flow pass steps over calls
// into module functions through per-function write-effect summaries.
//
// Checks (each individually suppressible with a `//hydralint:ignore <check>`
// comment on the offending line or the line above):
//
//	clock-discipline   no direct time.Now/Since/Sleep in internal/ data-plane
//	                   code; time flows through an injected timing.Clock
//	                   (§4.1.3 leases are meaningless under an unmockable
//	                   clock), with timing.Wall/timing.Sleep as the audited
//	                   liveness escape hatches.
//	shard-exclusivity  no `go` statements, sync.Mutex/RWMutex, or channel
//	                   sends on the shard hot path (internal/shard,
//	                   internal/kv, internal/hashtable) — the §4.1.1
//	                   single-threaded ownership model. The §6.2.1 pipelined
//	                   ablation baseline (internal/shard/pipelined.go) is
//	                   allowlisted.
//	atomic-word        values containing sync/atomic types are never copied,
//	                   ranged over by value, or aliased via unsafe — a copied
//	                   guardian/lease word silently stops being the word the
//	                   fabric CASes (§4.2.3). Non-test code makes no
//	                   function-style sync/atomic call: every atomic word is
//	                   a typed value, so plain access to it does not compile.
//	error-discipline   no discarded errors (`_ = f()` or a bare call) in
//	                   internal/ packages.
//	spec-order         the happens-before edges declared in protocolspec.Spec
//	                   literals hold on every code path. The
//	                   payload-before-release leg is the out-of-place PUT
//	                   flow pass (§4.2.3): every store into region memory
//	                   reachable from a to-be-published pointer must sequence
//	                   before the guardian/indicator release store, with
//	                   publication events keyed on `hydralint:publish`
//	                   constants and `hydralint:publishes` functions,
//	                   interprocedural via write-effect call summaries.
//	                   retract-before-free requires the retraction store to
//	                   precede any declared free in the same function;
//	                   apply-after-replicate requires an applier call before
//	                   any store to the declared commit word.
//	spec-coverage      whole-program: every atomic store to a word a spec
//	                   declares must be sanctioned — by a Writers entry, a
//	                   covering apply edge, a publish/unpublish constant, or
//	                   a publishes/unpublishes function the flow pass orders.
//	                   Every atomic word a package in some spec's Packages
//	                   accesses must be declared by a spec.
//	spec-drift         a spec may only name atomic words, functions,
//	                   marker constants, and edge kinds that
//	                   still exist; a declaration nothing implements fails
//	                   the lint (specs must not rot).
//	spec-guard         the declared torn-read guards still compare against
//	                   their bound in the reader's body.
//	stale-suppression  a `hydralint:ignore` that no longer filters any
//	                   finding is itself a finding — suppressions only
//	                   ratchet down.
//
// Usage:
//
//	hydralint [-checks clock-discipline,...] [-tests=false] [-list]
//	          [-listchecks] [-json] [-sarif out.sarif]
//	          [-budget .hydralint-budget]
//	          [-budget-write .hydralint-budget] [packages]
//
// Packages default to ./... and use `go list` syntax. -checks selects what
// runs: positive names run exactly that subset, `-name` entries skip checks
// ("all,-spec-order" or just "-spec-order" runs everything else), and
// a selection resolving to the full registry behaves like an unrestricted
// run. _test.go files are linted too unless -tests=false; checks whose
// rules only govern production code (clock-discipline, shard-exclusivity)
// always skip them. -listchecks prints the README check table (generated
// from the registry; a test keeps README in sync).
//
// -json prints findings in a versioned envelope {"version": N,
// "findings": [...]} sorted deterministically; -sarif writes a SARIF 2.1.0
// log for code-scanning upload (always written, even when clean), with each
// result fingerprinted by check+package+symbol so findings track across
// refactors. -budget compares the suppression census — keyed by
// check+package+enclosing-symbol since format version 2 — against a
// checked-in baseline and fails when a key grew or appeared; -budget-write
// regenerates the baseline. Exit status is 0 when clean, 1 when findings
// were reported or the budget was exceeded, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		listFlag    = flag.Bool("list", false, "list registered checks and exit")
		listChecks  = flag.Bool("listchecks", false, "print the README check table (markdown) and exit")
		checksFlag  = flag.String("checks", "", "comma-separated checks to run; -name skips a check (default: all)")
		testsFlag   = flag.Bool("tests", true, "also lint _test.go files")
		jsonFlag    = flag.Bool("json", false, "print findings as a versioned JSON envelope")
		sarifFlag   = flag.String("sarif", "", "write a SARIF 2.1.0 log to this file")
		budgetFlag  = flag.String("budget", "", "fail if suppression counts exceed this baseline file")
		budgetWrite = flag.String("budget-write", "", "write the current suppression counts to this baseline file")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hydralint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, c := range allChecks {
			fmt.Printf("%-18s %s\n", c.Name, c.Desc)
		}
		return
	}

	if *listChecks {
		fmt.Print(checkTableMarkdown())
		return
	}

	var only []string
	if *checksFlag != "" {
		var err error
		only, err = resolveCheckSelection(*checksFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydralint: %v\n", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	res, err := RunLint(".", patterns, only, *testsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydralint: %v\n", err)
		os.Exit(2)
	}
	diags := res.Diags

	if *sarifFlag != "" {
		f, err := os.Create(*sarifFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydralint: %v\n", err)
			os.Exit(2)
		}
		if err := writeSARIF(f, diags); err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydralint: writing SARIF: %v\n", err)
			os.Exit(2)
		}
	}

	if *jsonFlag {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "hydralint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s (%s)\n", d.File, d.Line, d.Col, d.Msg, d.Check)
		}
	}

	failed := len(diags) > 0
	if failed {
		fmt.Fprintf(os.Stderr, "hydralint: %d finding(s)\n", len(diags))
	}

	if *budgetWrite != "" {
		if err := os.WriteFile(*budgetWrite, []byte(formatBudget(res.Suppressions)), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hydralint: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "hydralint: wrote %s (%d suppressions)\n", *budgetWrite, res.Suppressions.Total())
	}

	if *budgetFlag != "" {
		baseline, err := parseBudget(*budgetFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydralint: %v\n", err)
			os.Exit(2)
		}
		failures, notes := checkBudget(res.Suppressions, baseline)
		for _, n := range notes {
			fmt.Fprintf(os.Stderr, "hydralint: note: %s\n", n)
		}
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "hydralint: %s\n", f)
		}
		if len(failures) > 0 {
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}
