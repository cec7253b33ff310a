// Command hydrasim runs the named fleet scenarios of the cluster simulator:
// multi-machine runs on one event heap with statistically modeled bulk
// traffic (millions of simulated clients in seconds) and full-fidelity
// tracer clients, emitting canonical JSON with a determinism hash and
// invariant verdicts.
//
// Examples:
//
//	hydrasim -list
//	hydrasim -scenario routing-convergence -scale full -seed 1
//	hydrasim -scenario all -scale smoke -json results.json
//	hydrasim -scenario promotion-storm -bug stuck-promotion   # must exit 1
//
// Exit status is non-zero when any scenario reports invariant violations
// (including deliberately seeded -bug runs — that is the self-test).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hydradb/internal/simcluster"
)

func main() {
	var (
		scenario = flag.String("scenario", "all", "scenario name from -list, or 'all'")
		scale    = flag.String("scale", "smoke", "smoke | full (full = the million-client configuration)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		jsonOut  = flag.String("json", "", "write results JSON to this file ('-' or empty = stdout)")
		list     = flag.Bool("list", false, "list scenarios and exit")
		bug      = flag.String("bug", "", "seed a deliberate defect: drop-bounces | stuck-promotion | ignore-jitter | leak-ops")
	)
	flag.Parse()

	if *list {
		for _, sc := range simcluster.Scenarios() {
			fmt.Printf("%-20s %s\n", sc.Name, sc.Description)
		}
		return
	}
	var sk simcluster.ScaleKind
	switch *scale {
	case "smoke":
		sk = simcluster.ScaleSmoke
	case "full":
		sk = simcluster.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	var names []string
	if *scenario == "all" {
		for _, sc := range simcluster.Scenarios() {
			names = append(names, sc.Name)
		}
	} else {
		if _, ok := simcluster.FindScenario(*scenario); !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (try -list)\n", *scenario)
			os.Exit(2)
		}
		names = []string{*scenario}
	}

	var results []*simcluster.ScenarioResult
	failed := false
	for _, name := range names {
		start := time.Now()
		res, err := simcluster.RunScenario(name, sk, *seed, simcluster.BugKind(*bug))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		results = append(results, res)
		verdict := "ok"
		if len(res.Violations) > 0 {
			verdict = fmt.Sprintf("FAIL (%d violations)", len(res.Violations))
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-20s scale=%-5s seed=%-3d hash=%s wall=%-8s %s\n",
			name, *scale, *seed, res.Hash, wall.Round(time.Millisecond), verdict)
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "    violation: %s\n", v)
		}
	}

	enc, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "encode results: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *jsonOut == "" || *jsonOut == "-" {
		if _, err := os.Stdout.Write(enc); err != nil {
			fmt.Fprintf(os.Stderr, "write results: %v\n", err)
			os.Exit(1)
		}
	} else if err := os.WriteFile(*jsonOut, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}
