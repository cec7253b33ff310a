package simcluster

import (
	"math"
	"math/rand"
)

// Statistical read-path modeling: instead of one event per bulk-client
// operation, the fleet simulator draws client-observed latencies from
// per-class distributions whose service-time means are calibrated
// (calibration.go) and whose network terms come from the cost model. This
// is what lets millions of simulated clients run in seconds — O(samples per
// tick), not O(operations).

// DistKind selects a latency distribution shape.
type DistKind string

// Distribution shapes.
const (
	DistFixed     DistKind = "fixed"
	DistLognormal DistKind = "lognormal"
)

// LatencySpec is one class's client-observed latency distribution. MeanNs
// is the distribution mean regardless of shape (for lognormal the location
// parameter is solved so the mean comes out exactly).
type LatencySpec struct {
	Dist   DistKind
	MeanNs float64
	Sigma  float64 // lognormal shape parameter
}

// Sample draws one latency in nanoseconds.
func (s LatencySpec) Sample(rng *rand.Rand) int64 {
	if s.Dist == DistLognormal {
		// E[exp(mu + sigma Z)] = exp(mu + sigma^2/2) = MeanNs.
		mu := math.Log(s.MeanNs) - s.Sigma*s.Sigma/2
		return int64(math.Exp(mu + s.Sigma*rng.NormFloat64()))
	}
	return int64(s.MeanNs)
}

// samplersFromCalibration composes client-observed latency specs, in
// class-index order: the calibrated service mean per class plus the network
// round trips the class pays under the cost model — one RTT for
// single-round classes, two for the classes that retry through the server
// (stale, bounce).
func samplersFromCalibration(cost CostModel) [numClasses]LatencySpec {
	rtt := 2 * float64(cost.WireNs+cost.NICOpNs)
	rtts := [numClasses]float64{idxHit: 1, idxStale: 2, idxMessage: 1, idxBounce: 2}
	var specs [numClasses]LatencySpec
	for i, c := range calibration {
		specs[i] = LatencySpec{Dist: c.dist, MeanNs: c.meanNs + rtts[i]*rtt, Sigma: c.sigma}
	}
	return specs
}
