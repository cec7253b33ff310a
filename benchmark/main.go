// Command benchmark is HydraDB's end-to-end yardstick: it starts a fresh
// in-process cluster per workload, bulk-loads it, drives it with a seeded
// YCSB request stream from at most nproc client goroutines, verifies every
// value read, and prints every metric by name with its unit. See README.md.
//
// The driver contract (BENCHMARK.json) runs one workload per process:
//
//	bash benchmark/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
//
// Without --workload it runs all five in turn.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

// measurement is one named number with its unit, as BENCHMARK.json declares
// it. n is the sample count behind it, where there is one.
type measurement struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is what one run of one workload reports.
type result struct {
	workload          string
	streamHash        uint64
	attempted, failed int64
	invalid           string // why an otherwise clean run does not count
	firstErr          error
	metrics           []measurement
}

func (r *result) correct() bool { return r.failed == 0 && r.invalid == "" }

func (r *result) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, measurement{name, value, unit, n})
}

// print writes the human-readable table and then, as the last line, the one
// JSON object of the driver contract.
func (r *result) print() {
	fmt.Printf("workload %s  gen.stream_hash=%016x  attempted=%d failed=%d failed_share=%g\n",
		r.workload, r.streamHash, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, m := range r.metrics {
		if m.n > 0 {
			fmt.Printf("  %-34s %16.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("  %-34s %16.4f %s\n", m.name, m.value, m.unit)
		}
	}
	if r.firstErr != nil {
		fmt.Printf("  first failure: %v\n", r.firstErr)
	}
	if r.invalid != "" {
		fmt.Printf("  run invalid: %s\n", r.invalid)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // numbers and strings only; cannot fail
	}
	fmt.Println(string(line))
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs all five")
		seed     = flag.Int64("seed", 1, "seed of the request stream and of the values")
		seconds  = flag.Int("seconds", 10, "seconds one run measures")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		traceOut = flag.String("trace-out", "", "traced run: write every span to this file as JSON lines")
		smoke    = flag.Bool("smoke", false, "about a second per workload on shrunken data; the numbers mean nothing")
		corrupt  = flag.Bool("inject-corrupt", false, "self-test: load damaged values and expect the run to count them as failures")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	todo := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{*w}
	}
	cfg := runConfig{
		seed:          *seed,
		warm:          2 * time.Second,
		measure:       time.Duration(*seconds) * time.Second,
		setups:        3,
		passes:        1,
		injectCorrupt: *corrupt,
	}
	if *smoke {
		cfg.warm, cfg.measure, cfg.setups = 200*time.Millisecond, time.Second, 1
	}

	ok := true
	for _, w := range todo {
		if *smoke {
			w = w.smoke()
		}
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(&w, &cfg, *traceOut)
		} else {
			res, err = runUntraced(&w, &cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res.print()
		ok = ok && res.correct()
	}
	if !ok {
		os.Exit(1)
	}
}

// runUntraced is the run that counts: set-up timed cfg.setups times, one
// warm-up, one measured window, nothing recorded but the strided samples.
func runUntraced(w *workload, cfg *runConfig) (*result, error) {
	s, err := newStream(w, cfg.seed, streamLen(w, cfg))
	if err != nil {
		return nil, err
	}
	d, setups, err := deployTimed(w, s, cfg)
	if err != nil {
		return nil, err
	}
	runs := pass(w, s, d, cfg, false)
	d.db.Close()

	res := &result{workload: w.name, streamHash: s.hash}
	sum := summarizePass(w, runs, res)
	res.add("ops_per_s", sum.opsPerS, "1/s", int(sum.ops))
	res.add("get_p50_us", sum.get.p50/1e3, "us", sum.get.n)
	res.add("get_p99_us", sum.get.p99/1e3, "us", sum.get.n)
	res.add("put_p50_us", sum.put.p50/1e3, "us", sum.put.n)
	res.add("put_p99_us", sum.put.p99/1e3, "us", sum.put.n)
	res.add("setup_s", median(slices.Clone(setups)), "s", len(setups))
	return res, nil
}

// streamLen is the number of requests to generate: the fixed closed-loop
// cycle, or exactly what an open-loop pass sends.
func streamLen(w *workload, cfg *runConfig) int {
	if w.rate == 0 {
		return closedLoopRequests
	}
	return int((cfg.warm+cfg.measure).Seconds()*float64(w.rate)) + 1
}

// passSummary is what both kinds of run take from a pass.
type passSummary struct {
	ops      int64
	opsPerS  float64
	get, put latency
	lateP99  float64 // ns, open loop only
}

// summarizePass merges the clients' records, folds their failure counts into
// res and, for an open-loop workload, decides whether the generator kept to
// its schedule well enough for the latencies to mean anything.
func summarizePass(w *workload, runs []clientRun, res *result) passSummary {
	var sum passSummary
	var get, put, late []int32
	for i := range runs {
		r := &runs[i]
		res.attempted += r.attempted
		res.failed += r.failed
		if res.firstErr == nil {
			res.firstErr = r.firstErr
		}
		sum.ops += r.ops
		sum.opsPerS += float64(r.ops) / (float64(r.end-r.start) / 1e9)
		get, put, late = append(get, r.get...), append(put, r.put...), append(late, r.late...)
	}
	sum.get, sum.put = summarize(get), summarize(put)
	if w.rate > 0 {
		sum.lateP99 = summarize(late).p99
		switch {
		case sum.lateP99 > 1e6:
			res.invalid = fmt.Sprintf("generator ran %.0f us late at p99 (limit 1000)", sum.lateP99/1e3)
		case sum.opsPerS < 0.98*float64(w.rate):
			res.invalid = fmt.Sprintf("achieved %.1f ops/s, below 98%% of the %d scheduled", sum.opsPerS, w.rate)
		}
	}
	return sum
}
