package simcluster

import (
	"math"
	"math/rand"
	"testing"

	"hydradb/internal/testutil"
)

// TestSamplerMeans checks each distribution shape empirically: over many
// draws the sample mean must land within 3% of the spec mean (the lognormal
// location parameter is solved for the mean, so this catches a wrong
// mu/sigma formula immediately).
func TestSamplerMeans(t *testing.T) {
	const n = 200_000
	for _, tc := range []struct {
		name string
		spec LatencySpec
	}{
		{"fixed", LatencySpec{Dist: DistFixed, MeanNs: 184.6}},
		{"exponential", LatencySpec{Dist: DistExponential, MeanNs: 594.5}},
		{"lognormal", LatencySpec{Dist: DistLognormal, MeanNs: 706.2, Sigma: 0.25}},
		{"lognormal-wide", LatencySpec{Dist: DistLognormal, MeanNs: 1412.4, Sigma: 0.6}},
	} {
		rng := rand.New(rand.NewSource(1))
		sum := 0.0
		for i := 0; i < n; i++ {
			v := tc.spec.Sample(rng)
			if v < 0 {
				t.Fatalf("%s: negative sample %d", tc.name, v)
			}
			sum += float64(v)
		}
		mean := sum / n
		if rel := math.Abs(mean-tc.spec.MeanNs) / tc.spec.MeanNs; rel > 0.03 {
			t.Errorf("%s: empirical mean %.1f vs spec %.1f (%.1f%% off)", tc.name, mean, tc.spec.MeanNs, rel*100)
		}
	}
}

// TestSamplerDeterministic pins that a fixed seed yields an identical draw
// sequence — required for the scenario golden hashes.
func TestSamplerDeterministic(t *testing.T) {
	spec := LatencySpec{Dist: DistLognormal, MeanNs: 890.8, Sigma: 0.25}
	draw := func() []int64 {
		rng := rand.New(rand.NewSource(99))
		out := make([]int64, 64)
		for i := range out {
			out[i] = spec.Sample(rng)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestSamplersFromCalibration checks the network-term composition: every
// class mean is the calibrated service mean plus its round-trip count times
// the cost-model RTT, and stale/bounce pay two RTTs.
func TestSamplersFromCalibration(t *testing.T) {
	cal := DefaultCalibration()
	cost := DefaultCostModel()
	set := SamplersFromCalibration(cal, cost)
	rtt := 2 * float64(cost.WireNs+cost.NICOpNs)
	for _, tc := range []struct {
		class LatencyClass
		rtts  float64
	}{
		{ClassHit, 1}, {ClassStale, 2}, {ClassMessage, 1}, {ClassBounce, 2},
	} {
		spec := testutil.Must1(set.Class(tc.class))
		want := cal.Classes[tc.class].MeanNs + tc.rtts*rtt
		if math.Abs(spec.MeanNs-want) > 1e-9 {
			t.Errorf("class %s: mean %.1f, want %.1f (service + %.0f RTT)", tc.class, spec.MeanNs, want, tc.rtts)
		}
		if spec.Dist != DistKind(cal.Classes[tc.class].Dist) {
			t.Errorf("class %s: dist %s, want %s", tc.class, spec.Dist, cal.Classes[tc.class].Dist)
		}
	}
	if _, err := set.Class("nope"); err == nil {
		t.Error("unknown class: want error")
	}
}
