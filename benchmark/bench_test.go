package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestQuantileInterpolatesInsideATick(t *testing.T) {
	// 100 samples: 40 at 500 ns, 40 at 501 ns, 20 at 900 ns.
	var s []int32
	for i := 0; i < 40; i++ {
		s = append(s, 500, 501)
	}
	for i := 0; i < 20; i++ {
		s = append(s, 900)
	}
	slices.Sort(s)
	for _, c := range []struct{ q, want float64 }{
		{0.20, 500.5},  // rank 20 of the 40 samples in [500,501)
		{0.50, 501.25}, // rank 50: 10 into the 40 samples in [501,502)
		{0.90, 900.5},
		{0.99, 900.95},
	} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := quantile([]int32{7}, 1.0); got < 7 || got > 8 {
		t.Errorf("quantile(1.0) of one sample = %v, want within its tick", got)
	}
}

func TestQuantileMovesWithASmallShift(t *testing.T) {
	// Moving 1% of the samples one tick up must move the median, which a
	// plain order statistic would not show.
	a := make([]int32, 1000)
	for i := range a {
		a[i] = 500
	}
	b := slices.Clone(a)
	for i := 0; i < 10; i++ {
		b[i] = 499
	}
	slices.Sort(b)
	if qa, qb := quantile(a, 0.5), quantile(b, 0.5); !(qb < qa) {
		t.Errorf("median did not move: %v then %v", qa, qb)
	}
}

func TestStrideSamplesOneInEight(t *testing.T) {
	n := 0
	for op := int64(0); op < 8000; op++ {
		if sampled(op) {
			n++
			if op%stride != 0 {
				t.Fatalf("op %d sampled off the stride", op)
			}
		}
	}
	if n != 8000/stride {
		t.Errorf("sampled %d of 8000 ops, want %d", n, 8000/stride)
	}
}

func TestSelfTimeSubtractsDirectChildren(t *testing.T) {
	spans := []span{
		{name: spanBatch, parent: -1, start: 0, end: 1000},
		{name: spanKVGet, parent: 0, start: 100, end: 500},       // 400
		{name: spanTableLookup, parent: 1, start: 500, end: 650}, // 150, replayed after its parent
		{name: spanOwner, parent: 0, start: 700, end: 800},       // 100
		{name: spanDecodeReq, parent: 3, start: 0, end: 999},     // larger than its parent: clamps
	}
	want := []int64{1000 - 400 - 100, 400 - 150, 150, 0, 999}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	ns, perBatch := stageMedians(spans)
	if perBatch[spanKVGet] != 1 || perBatch[spanBatch] != 1 {
		t.Errorf("perBatch = %v", perBatch)
	}
	if got, want := stageSum(ns, perBatch), float64(250+150+0+999)/stageBatch; math.Abs(got-want) > 0.2 {
		t.Errorf("stageSum = %v, want about %v", got, want)
	}
}

func TestValueVerifiesItself(t *testing.T) {
	var v [valueLen]byte
	encodeValue(v[:], 42, 7<<48|3, 99)
	if !checkValue(v[:], 42, 99) {
		t.Fatal("fresh value rejected")
	}
	if checkValue(v[:], 43, 99) {
		t.Error("value accepted for another key")
	}
	if checkValue(v[:], 42, 100) {
		t.Error("value accepted for another run")
	}
	if checkValue(v[:valueLen-1], 42, 99) {
		t.Error("short value accepted")
	}
	for i := range v {
		v[i] ^= 1
		if checkValue(v[:], 42, 99) {
			t.Errorf("flipped bit in byte %d went unnoticed", i)
		}
		v[i] ^= 1
	}
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	w := findWorkload("update_heavy").smoke()
	hash := func(seed int64) uint64 {
		s, err := newStream(&w, seed, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		return s.hash
	}
	if a, b := hash(5), hash(5); a != b {
		t.Errorf("same seed, different streams: %x and %x", a, b)
	}
	if a, b := hash(5), hash(6); a == b {
		t.Errorf("seeds 5 and 6 gave the same stream %x", a)
	}
	s, err := newStream(&w, 5, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	updates := 0
	for _, rq := range s.reqs {
		if int64(rq>>1) >= w.records {
			t.Fatalf("request for record %d of %d", rq>>1, w.records)
		}
		updates += int(rq & 1)
	}
	if share := float64(updates) / float64(len(s.reqs)); math.Abs(share-0.5) > 0.02 {
		t.Errorf("update share %.3f, want 0.5", share)
	}
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func smokeConfig() runConfig {
	return runConfig{seed: 11, warm: 100 * time.Millisecond, measure: 500 * time.Millisecond, setups: 1, passes: 1}
}

// Every workload must start, load, run, verify and report every end-to-end
// metric with a positive value; the sizes are a smoke test's, so the values
// themselves mean nothing.
func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloads {
		w := w.smoke()
		cfg := smokeConfig()
		res, err := runUntraced(&w, &cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.attempted, res.failed, res.firstErr)
		}
		for _, name := range []string{"ops_per_s", "get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us", "setup_s"} {
			if v := res.get(name); !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
			}
		}
	}
}

// The traced run must emit every per-layer metric BENCHMARK.json declares,
// keep each workload in the regime it was chosen for, and account for time
// consistently: the stage sums cannot exceed the live path they are part of.
func TestSmokeTraced(t *testing.T) {
	declared := declaredMetrics(t, "per_layer")
	for _, w := range workloads {
		w := w.smoke()
		cfg := smokeConfig()
		cfg.measure = time.Second
		res, err := runTraced(&w, &cfg, "")
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d failed: %v", w.name, res.failed, res.firstErr)
		}
		var got []string
		for _, m := range res.metrics {
			got = append(got, m.name)
		}
		slices.Sort(got)
		if !slices.Equal(got, declared) {
			t.Errorf("%s: per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", w.name, got, declared)
		}
		hit := res.get("client.onesided_hit_share")
		switch w.name {
		case "read_hot":
			if hit < 0.8 {
				t.Errorf("read_hot: one-sided hit share %.3f, want >= 0.8", hit)
			}
		case "read_msg":
			if hit != 0 {
				t.Errorf("read_msg: one-sided hit share %.3f, want 0", hit)
			}
		}
		if w.rate == 0 {
			// (A paced run's live latencies are wake-up time; the comparison
			// holds there by orders of magnitude and says nothing.)
			for _, p := range [][2]string{
				{"stage.get_msg_sum_ns", "client.get_message_p50_ns"},
				{"stage.put_sum_ns", "client.put_p50_ns"},
			} {
				if sum, live := res.get(p[0]), res.get(p[1]); live > 0 && sum > live {
					t.Errorf("%s: %s = %.0f exceeds %s = %.0f", w.name, p[0], sum, p[1], live)
				}
			}
		}
		if (res.get("replication.replicate_ns") > 0) != (w.replicas > 0) {
			t.Errorf("%s: replication stage present = %v with %d replicas",
				w.name, res.get("replication.replicate_ns") > 0, w.replicas)
		}
	}
}

// The benchmark's own seeded bug: damaged values in the store must surface
// as failed operations, or the verification verifies nothing.
func TestInjectedCorruptionIsCounted(t *testing.T) {
	w := findWorkload("read_hot").smoke()
	cfg := smokeConfig()
	cfg.injectCorrupt = true
	res, err := runUntraced(&w, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 || res.correct() {
		t.Errorf("failed = %d, correct = %v after loading damaged values", res.failed, res.correct())
	}
	if res.firstErr == nil {
		t.Error("no first failure recorded")
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the code to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// declaredMetrics lists, sorted, the metric names BENCHMARK.json declares
// under key.
func declaredMetrics(t *testing.T, key string) []string {
	b := readBenchmarkJSON(t)
	list := b.EndToEnd
	if key == "per_layer" {
		list = b.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

// BENCHMARK.json repeats the workload table for the driver; the two must not
// drift apart.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, d := range b.Workloads {
		w := findWorkload(d.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the harness does not have", d.Name)
		} else if w.why != d.Why {
			t.Errorf("%s: why differs:\n json %q\n code %q", d.Name, d.Why, w.why)
		}
	}
}
