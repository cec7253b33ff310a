package simcluster

import (
	"fmt"
	"math"
	"math/rand"
)

// Statistical read-path modeling: instead of one event per bulk-client
// operation, the fleet simulator draws client-observed latencies from
// per-class distributions whose service-time means are calibrated from the
// live microbenchmarks (calibration.go) and whose network terms come from
// the cost model. This is what lets millions of simulated clients run in
// seconds — O(samples per tick), not O(operations).

// DistKind selects a latency distribution shape.
type DistKind string

// Distribution shapes.
const (
	DistFixed       DistKind = "fixed"
	DistExponential DistKind = "exponential"
	DistLognormal   DistKind = "lognormal"
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
	switch s.Dist {
	case DistExponential:
		return int64(rng.ExpFloat64() * s.MeanNs)
	case DistLognormal:
		// E[exp(mu + sigma Z)] = exp(mu + sigma^2/2) = MeanNs.
		mu := math.Log(s.MeanNs) - s.Sigma*s.Sigma/2
		return int64(math.Exp(mu + s.Sigma*rng.NormFloat64()))
	default:
		return int64(s.MeanNs)
	}
}

// SamplerSet holds the four class samplers.
type SamplerSet struct {
	Hit, Stale, Message, Bounce LatencySpec
}

// Class returns the spec for a class name.
func (s SamplerSet) Class(c LatencyClass) (LatencySpec, error) {
	switch c {
	case ClassHit:
		return s.Hit, nil
	case ClassStale:
		return s.Stale, nil
	case ClassMessage:
		return s.Message, nil
	case ClassBounce:
		return s.Bounce, nil
	}
	return LatencySpec{}, fmt.Errorf("simcluster: unknown latency class %q", c)
}

// SamplersFromCalibration composes client-observed latency specs: the
// calibrated CPU/service mean per class plus the network round trips the
// class pays under the cost model — one RTT for single-round classes, two
// for the classes that retry through the server (stale, bounce).
func SamplersFromCalibration(cal Calibration, cost CostModel) SamplerSet {
	rtt := 2 * float64(cost.WireNs+cost.NICOpNs)
	spec := func(c LatencyClass, rtts float64) LatencySpec {
		cc := cal.Classes[c]
		return LatencySpec{
			Dist:   DistKind(cc.Dist),
			MeanNs: cc.MeanNs + rtts*rtt,
			Sigma:  cc.Sigma,
		}
	}
	return SamplerSet{
		Hit:     spec(ClassHit, 1),
		Stale:   spec(ClassStale, 2),
		Message: spec(ClassMessage, 1),
		Bounce:  spec(ClassBounce, 2),
	}
}
