package simcluster

import (
	"math"
	"math/rand"
	"testing"
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

// TestCalibration pins the calibration table: classes in index order, each
// composite mean the sum of the measured ones (stale = hit + message, bounce
// = two messages), and the declared distribution shapes.
func TestCalibration(t *testing.T) {
	for i, want := range []struct {
		class  LatencyClass
		meanNs float64
		dist   DistKind
	}{
		{ClassHit, hitNs, DistFixed},
		{ClassStale, hitNs + messageNs, DistLognormal},
		{ClassMessage, messageNs, DistLognormal},
		{ClassBounce, 2 * messageNs, DistLognormal},
	} {
		c := calibration[i]
		if c.class != want.class || c.meanNs != want.meanNs || c.dist != want.dist {
			t.Errorf("calibration[%d] = {%s %v %s}, want {%s %v %s}",
				i, c.class, c.meanNs, c.dist, want.class, want.meanNs, want.dist)
		}
	}
}

// TestSamplersFromCalibration checks the network-term composition: every
// class mean is the calibrated service mean plus its round-trip count times
// the cost-model RTT, and stale/bounce pay two RTTs.
func TestSamplersFromCalibration(t *testing.T) {
	cost := DefaultCostModel()
	specs := samplersFromCalibration(cost)
	rtt := 2 * float64(cost.WireNs+cost.NICOpNs)
	for i, rtts := range []float64{idxHit: 1, idxStale: 2, idxMessage: 1, idxBounce: 2} {
		c := calibration[i]
		if want := c.meanNs + rtts*rtt; math.Abs(specs[i].MeanNs-want) > 1e-9 {
			t.Errorf("class %s: mean %.1f, want %.1f (service + %.0f RTT)", c.class, specs[i].MeanNs, want, rtts)
		}
		if specs[i].Dist != c.dist || specs[i].Sigma != c.sigma {
			t.Errorf("class %s: shape (%s, %.2f), want (%s, %.2f)", c.class, specs[i].Dist, specs[i].Sigma, c.dist, c.sigma)
		}
	}
}
