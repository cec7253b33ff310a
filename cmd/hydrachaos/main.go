// Command hydrachaos drives HydraDB clusters through deterministic fault
// schedules — seeded link faults (drop/duplicate/reorder/delay), scripted
// partitions, primary crashes, SWAT-leader kills, and live migrations — and
// holds every value clients observed against the per-key linearizability
// oracle in internal/history (§5 resilience, §6.5 availability).
//
//	hydrachaos -list                     enumerate scenarios
//	hydrachaos                           all scenarios, one seed each
//	hydrachaos -scenario crash-primary   one scenario
//	hydrachaos -seed 7 -seeds 3          seeds 7, 8, 9 per scenario
//	hydrachaos -clients 8 -ops 500       override the workload shape
//	                                     (scripted events rescale with it)
//	hydrachaos -replay 'v1 name=...'     re-run a printed schedule line
//	hydrachaos -bug                      arm the seeded corruption self-test;
//	                                     the oracle must flag it and exit 1
//	                                     (CI runs `! hydrachaos -bug`)
//
// Every failing run prints the minimal offending per-key history and the
// one-line schedule that reproduces it via -replay.
//
// Exit status: 0 all runs clean, 1 violation or lost acked write (or a
// seeded bug the oracle failed to catch — which also prints loudly),
// 2 usage or environment error.
package main

import (
	"flag"
	"fmt"
	"os"

	"hydradb/internal/chaos"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hydrachaos", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list scenarios and exit")
		scenario = fs.String("scenario", "", "run a single scenario (default: all)")
		seed     = fs.Uint64("seed", 1, "first seed")
		seeds    = fs.Int("seeds", 1, "consecutive seeds per scenario")
		clients  = fs.Int("clients", 0, "override concurrent clients (0: scenario default)")
		ops      = fs.Int("ops", 0, "override operations per client")
		keys     = fs.Int("keys", 0, "override distinct keys")
		replay   = fs.String("replay", "", "re-run a schedule line printed by a failing run")
		bug      = fs.Bool("bug", false, "arm the seeded corruption; the oracle must catch it")
		verbose  = fs.Bool("v", false, "log injected events and run progress")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, name := range chaos.Scenarios() {
			fmt.Println(name)
		}
		return 0
	}

	var schedules []chaos.Schedule
	switch {
	case *replay != "":
		s, err := chaos.Parse(*replay)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		schedules = append(schedules, s)
	default:
		names := chaos.Scenarios()
		if *scenario != "" {
			names = []string{*scenario}
		}
		if *seeds < 1 {
			fmt.Fprintln(os.Stderr, "hydrachaos: -seeds must be >= 1")
			return 2
		}
		for _, name := range names {
			for i := 0; i < *seeds; i++ {
				s, err := chaos.ForScenario(name, *seed+uint64(i))
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					return 2
				}
				reshape(&s, *clients, *ops, *keys)
				schedules = append(schedules, s)
			}
		}
	}

	exit := 0
	for _, s := range schedules {
		if code := runOne(s, *bug, *verbose); code > exit {
			exit = code
		}
	}
	return exit
}

// reshape applies workload overrides, rescaling scripted event trigger
// points to the new total operation count so "crash at one third of the
// run" stays at one third.
func reshape(s *chaos.Schedule, clients, ops, keys int) {
	oldTotal := int64(s.Clients * s.Ops)
	if clients > 0 {
		s.Clients = clients
	}
	if ops > 0 {
		s.Ops = ops
	}
	if keys > 0 {
		s.Keys = keys
	}
	newTotal := int64(s.Clients * s.Ops)
	if newTotal == oldTotal {
		return
	}
	for i := range s.Events {
		s.Events[i].AtOp = s.Events[i].AtOp * newTotal / oldTotal
	}
}

func runOne(s chaos.Schedule, bug bool, verbose bool) int {
	opts := chaos.Options{Schedule: s, SeededBug: bug}
	if verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		}
	}
	res, err := chaos.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hydrachaos: %s seed=%d: %v\n", s.Name, s.Seed, err)
		return 2
	}

	verdict := "ok"
	if res.Failed() {
		verdict = "FAILED"
	}
	fmt.Printf("%-20s seed=%-4d ops=%-5d operrs=%-4d promotions=%d recover=%s %s\n",
		s.Name, s.Seed, res.Ops, res.OpErrors, res.Promotions, recoverMillis(res.RecoverNs), verdict)
	if verbose {
		fmt.Printf("  injected: %s\n", res.Injected)
	}

	if !res.Failed() {
		if bug {
			fmt.Printf("  SEEDED BUG NOT CAUGHT: the oracle missed a silently corrupted acked write\n")
			return 1
		}
		return 0
	}
	if res.Violation != nil {
		fmt.Printf("%s", res.Violation)
	}
	if len(res.LostKeys) > 0 {
		fmt.Printf("  lost acked writes: %v\n", res.LostKeys)
	}
	if res.LeakedGoroutines > 0 {
		fmt.Printf("  leaked goroutines: %d\n", res.LeakedGoroutines)
	}
	fmt.Printf("  replay: hydrachaos%s -replay '%s'\n", bugFlag(bug), s)
	return 1
}

func bugFlag(armed bool) string {
	if armed {
		return " -bug"
	}
	return ""
}

// recoverMillis renders crash-to-promotion times, one per scripted kill.
func recoverMillis(ns []int64) string {
	if len(ns) == 0 {
		return "-"
	}
	out := ""
	for i, v := range ns {
		if i > 0 {
			out += ","
		}
		if v < 0 {
			out += "never"
			continue
		}
		out += fmt.Sprintf("%.1fms", float64(v)/1e6)
	}
	return out
}
