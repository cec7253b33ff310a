// Command hydramc is HydraDB's exhaustive interleaving checker: it runs
// small models of the lock-free protocols — built on the real
// internal/kv, internal/lease, internal/message, internal/replication and
// internal/client code — under every thread interleaving up to a bound,
// asserting the invariants of DESIGN.md §9.
//
//	hydramc -list                  enumerate models
//	hydramc -all                   explore every model, then self-test that
//	                               each model's seeded bug is caught
//	hydramc -model mailbox         explore one model
//	hydramc -model mailbox -bug    explore with the seeded protocol bug;
//	                               prints the violating schedule and exits 1
//	hydramc -model mailbox -bug -replay 1,0,2,...
//	                               deterministically re-execute one schedule
//	hydramc -fine ...              word-granularity interleaving (requires a
//	                               -tags hydradebug build)
//	hydramc -footprints            print each model's Footprint as generated
//	                               from the protocolspec.Spec declarations
//	                               (with its SchedPoint hook skeleton) and
//	                               diff it against footprint.go; exits 1 on
//	                               any drift
//
// Exit status: 0 clean, 1 invariant violation (or a seeded bug the checker
// failed to catch), 2 usage or environment error.
package main

import (
	"flag"
	"fmt"
	"os"

	"hydradb/internal/modelcheck"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hydramc", flag.ContinueOnError)
	var (
		list         = fs.Bool("list", false, "list models and exit")
		all          = fs.Bool("all", false, "explore every model, then self-test the seeded bugs")
		model        = fs.String("model", "", "explore a single model by name")
		bug          = fs.Bool("bug", false, "arm the model's seeded protocol bug")
		replay       = fs.String("replay", "", "re-execute one comma-separated schedule (with -model)")
		maxSteps     = fs.Int("maxsteps", 0, "max steps per schedule (0 = default)")
		maxSchedules = fs.Int("maxschedules", 0, "max schedules per exploration (0 = default)")
		fine         = fs.Bool("fine", false, "word-granularity interleaving (needs -tags hydradebug)")
		footprints   = fs.Bool("footprints", false, "print spec-generated model footprints and diff them against footprint.go")
		verbose      = fs.Bool("v", false, "print per-exploration detail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fine && !modelcheck.FineAvailable {
		fmt.Fprintln(os.Stderr, "hydramc: -fine needs word-level yield points; rebuild with -tags hydradebug")
		return 2
	}
	opts := modelcheck.Options{MaxSteps: *maxSteps, MaxSchedules: *maxSchedules, Fine: *fine}

	switch {
	case *list:
		for _, m := range modelcheck.Models() {
			fmt.Printf("%-12s %s\n", m.Name, m.Desc)
			fmt.Printf("%-12s seeded bug: %s\n", "", m.Bug)
		}
		return 0

	case *replay != "":
		if *model == "" {
			fmt.Fprintln(os.Stderr, "hydramc: -replay needs -model")
			return 2
		}
		m, ok := modelcheck.Lookup(*model)
		if !ok {
			fmt.Fprintf(os.Stderr, "hydramc: unknown model %q (try -list)\n", *model)
			return 2
		}
		sched, err := modelcheck.ParseSchedule(*replay)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydramc: %v\n", err)
			return 2
		}
		res, trace := modelcheck.Replay(m, *bug, sched, opts)
		for i, s := range trace {
			fmt.Printf("  step %2d  %s\n", i, s)
		}
		if res.Violation != nil {
			fmt.Printf("%s: %s", m.Name, res.Violation)
			return 1
		}
		fmt.Printf("%s: schedule replayed, no violation\n", m.Name)
		return 0

	case *model != "":
		m, ok := modelcheck.Lookup(*model)
		if !ok {
			fmt.Fprintf(os.Stderr, "hydramc: unknown model %q (try -list)\n", *model)
			return 2
		}
		return report(m, modelcheck.Explore(m, *bug, opts), *bug, *verbose)

	case *footprints:
		// The generation half of the lint <-> model-checker loop: derive
		// every model footprint from the protocolspec.Spec declarations,
		// print it with its SchedPoint hook skeleton, and diff against the
		// hand-written footprint.go table. Any drift is a loud exit 1 —
		// the same agreement TestGeneratedFootprintsMatchHandWritten pins.
		gen := modelcheck.GeneratedFootprints()
		hand := modelcheck.Footprints()
		drift := 0
		for _, fp := range gen {
			fmt.Printf("%s\n", modelcheck.RenderFootprint(fp))
			for _, hook := range modelcheck.SchedSkeleton(fp) {
				fmt.Printf("    %s\n", hook)
			}
		}
		if len(gen) != len(hand) {
			fmt.Printf("DRIFT: specs generate %d footprints, footprint.go declares %d\n", len(gen), len(hand))
			drift++
		} else {
			for i := range gen {
				g, h := modelcheck.RenderFootprint(gen[i]), modelcheck.RenderFootprint(hand[i])
				if g != h {
					fmt.Printf("DRIFT at footprint %d:\n  generated:    %s\n  hand-written: %s\n", i, g, h)
					drift++
				}
			}
		}
		if drift > 0 {
			fmt.Printf("hydramc: %d footprint(s) drifted from the specs; update footprint.go or the owning spec\n", drift)
			return 1
		}
		fmt.Printf("hydramc: %d footprints match the spec-generated table\n", len(gen))
		return 0

	case *all:
		worst := 0
		for _, m := range modelcheck.Models() {
			if rc := report(m, modelcheck.Explore(m, false, opts), false, *verbose); rc > worst {
				worst = rc
			}
			// Self-test: the checker must catch the model's seeded bug —
			// the analogue of hydralint's fixture self-tests.
			selfRes := modelcheck.Explore(m, true, opts)
			if selfRes.Violation == nil {
				fmt.Printf("%-12s SELF-TEST FAILED: seeded bug went undetected (%s) after %d schedules\n",
					m.Name, m.Bug, selfRes.Schedules)
				worst = 1
				continue
			}
			fmt.Printf("%-12s self-test ok: seeded bug caught after %d schedules (%s)\n",
				m.Name, selfRes.Schedules, firstLine(selfRes.Violation.Msg))
		}
		return worst

	default:
		fs.Usage()
		return 2
	}
}

// report prints one exploration result. When the seeded bug was armed
// explicitly, finding the violation is the expected loud failure: the full
// trace and replay line are printed and the exit status is 1.
func report(m modelcheck.Model, res modelcheck.Result, bugArmed, verbose bool) int {
	status := "ok"
	if res.Truncated {
		status = "ok (bounded)"
	}
	if res.Violation != nil {
		fmt.Printf("%-12s schedules=%d steps=%d VIOLATION\n", m.Name, res.Schedules, res.Steps)
		fmt.Printf("%s", res.Violation)
		fmt.Printf("  reproduce: hydramc -model %s%s -replay %s\n",
			m.Name, bugFlag(bugArmed), scheduleCSV(res.Violation.Schedule))
		return 1
	}
	fmt.Printf("%-12s schedules=%d steps=%d %s\n", m.Name, res.Schedules, res.Steps, status)
	if verbose && res.Truncated {
		fmt.Printf("%-12s note: exploration hit a bound; raise -maxsteps/-maxschedules for full coverage\n", "")
	}
	return 0
}

func bugFlag(armed bool) string {
	if armed {
		return " -bug"
	}
	return ""
}

func scheduleCSV(s []int) string {
	out := ""
	for i, c := range s {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", c)
	}
	return out
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}
