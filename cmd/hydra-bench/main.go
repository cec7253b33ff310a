// Command hydra-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	hydra-bench -fig all            # everything, quick scale
//	hydra-bench -fig 9,10 -scale full
//	hydra-bench -fig 12
//
// Output is the set of aligned tables the harness produces; EXPERIMENTS.md
// records a captured run side by side with the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hydradb/internal/bench"
	"hydradb/internal/ycsb"
)

func main() {
	figs := flag.String("fig", "all", "comma-separated figures: 2,3,9,10,11,12,13,claims,ablations,pipeline or 'all'")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or full")
	flag.Parse()

	var scale bench.Scale
	switch *scaleName {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scaleName)
		os.Exit(2)
	}

	figures := []struct {
		name string
		run  func()
	}{
		{"2", func() { fmt.Println(bench.Fig02(scale)) }},
		{"3", func() { fmt.Println(bench.Fig03(scale)) }},
		{"9", func() { fmt.Println(bench.Fig09(scale)) }},
		{"10", func() { fmt.Println(bench.Fig10(scale)) }},
		{"11", func() { fmt.Println(bench.Fig11(scale)) }},
		{"claims", func() { fmt.Println(bench.SectionClaims(scale)) }},
		{"12", func() {
			fmt.Println(bench.Fig12ScaleOut(scale, ycsb.Uniform))
			fmt.Println(bench.Fig12ScaleOut(scale, ycsb.Zipfian))
			fmt.Println(bench.Fig12ScaleUp(scale, ycsb.Uniform))
			fmt.Println(bench.Fig12ScaleUp(scale, ycsb.Zipfian))
		}},
		{"13", func() { fmt.Println(bench.Fig13(scale)) }},
		{"pipeline", func() { fmt.Println(bench.PipelineMicro(scale)) }},
		{"ablations", func() {
			fmt.Println(bench.AblationSubsharding(scale))
			fmt.Println(bench.AblationPointerSharing(scale))
			fmt.Println(bench.AblationLeasePolicy(scale))
			fmt.Println(bench.AblationNUMA(scale))
		}},
	}

	known := map[string]bool{"all": true}
	for _, f := range figures {
		known[f.name] = true
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		f = strings.TrimSpace(f)
		if !known[f] {
			fmt.Fprintf(os.Stderr, "unknown figure %q (see -h)\n", f)
			os.Exit(2)
		}
		want[f] = true
	}

	fmt.Printf("hydradb benchmark harness — scale=%s records=%d ops=%d clients=%d\n\n",
		scale.Name, scale.Records, scale.Ops, scale.Clients)

	for _, f := range figures {
		if !want["all"] && !want[f.name] {
			continue
		}
		start := time.Now()
		f.run()
		fmt.Printf("(%s regenerated in %v)\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
}
