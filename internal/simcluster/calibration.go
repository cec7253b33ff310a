package simcluster

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// The fleet simulator's statistical read-path classes are calibrated from
// the repo's live-mode microbenchmarks: each class's service-time mean is a
// sum of checked-in BENCH_PR7.json figures. The calibration is itself
// checked in (calibration.json, embedded below) so simulation results are
// reproducible even when the benchmark snapshot moves; TestCalibration
// asserts the two stay within a declared drift bound and
// `go test -run TestCalibration -update` regenerates the file.

// LatencyClass names one statistical read-path class.
type LatencyClass string

// The four modeled classes: pointer-cache hit / stale / message-path /
// WrongShard bounce.
const (
	ClassHit     LatencyClass = "hit"     // one-sided RDMA Read through a valid cached pointer
	ClassStale   LatencyClass = "stale"   // invalid hit: one-sided read, guardian miss, message fallback
	ClassMessage LatencyClass = "message" // RDMA-Write message round trip through the shard thread
	ClassBounce  LatencyClass = "bounce"  // WrongShard: message to the old owner, reroute, retry
)

// ClassCalibration records one class's service-time model and provenance.
type ClassCalibration struct {
	// Bench lists the BENCH_PR7.json benchmark names whose ns_per_op sum
	// to MeanNs — the audit trail from simulation back to measurement.
	Bench  []string `json:"bench"`
	MeanNs float64  `json:"mean_ns"`
	Dist   string   `json:"dist"`
	Sigma  float64  `json:"sigma,omitempty"`
}

// Calibration maps every latency class to its calibrated parameters.
type Calibration struct {
	Source  string                            `json:"source"`
	Classes map[LatencyClass]ClassCalibration `json:"classes"`
}

// classRecipes declares, per class, which live benchmarks compose its mean
// and which distribution shape fits it: cache hits are near-deterministic
// (fixed) and the message-path classes are right-skewed by queueing
// (lognormal).
var classRecipes = []struct {
	Class LatencyClass
	Bench []string
	Dist  string
	Sigma float64
}{
	{ClassHit, []string{"BenchmarkLiveGet_RDMARead"}, "fixed", 0},
	{ClassStale, []string{"BenchmarkLiveGet_RDMARead", "BenchmarkLiveGet_MessagePath"}, "lognormal", 0.25},
	{ClassMessage, []string{"BenchmarkLiveGet_MessagePath"}, "lognormal", 0.25},
	{ClassBounce, []string{"BenchmarkLiveGet_MessagePath", "BenchmarkLiveGet_MessagePath"}, "lognormal", 0.25},
}

// CalibrationDriftBound is the declared tolerance between the embedded
// calibration and a fresh derivation from BENCH_PR7.json. Within the bound,
// results stay comparable; beyond it, TestCalibration fails and the
// calibration must be regenerated explicitly (drift is never silent).
const CalibrationDriftBound = 0.25

//go:embed calibration.json
var calibrationJSON []byte

var defaultCalibration = func() Calibration {
	c, err := ParseCalibration(calibrationJSON)
	if err != nil {
		panic(fmt.Sprintf("simcluster: embedded calibration.json invalid: %v", err))
	}
	return c
}()

// DefaultCalibration returns the checked-in calibration.
func DefaultCalibration() Calibration { return defaultCalibration }

// ParseCalibration decodes a calibration document.
func ParseCalibration(data []byte) (Calibration, error) {
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return Calibration{}, fmt.Errorf("simcluster: parse calibration: %w", err)
	}
	for _, r := range classRecipes {
		if _, ok := c.Classes[r.Class]; !ok {
			return Calibration{}, fmt.Errorf("simcluster: calibration missing class %q", r.Class)
		}
	}
	return c, nil
}

// EncodeCalibration renders a calibration document in the canonical form
// -update writes (json.Marshal sorts map keys, so output is stable).
func EncodeCalibration(c Calibration) ([]byte, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("simcluster: encode calibration: %w", err)
	}
	return append(b, '\n'), nil
}

// benchDoc mirrors the slice of cmd/benchjson output the calibration needs.
type benchDoc struct {
	Benchmarks map[string]struct {
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"benchmarks"`
}

// DeriveCalibration computes a fresh calibration from a cmd/benchjson
// snapshot (BENCH_PR7.json): each class mean is the sum of its recipe's
// ns_per_op figures.
func DeriveCalibration(benchJSON []byte, source string) (Calibration, error) {
	var doc benchDoc
	if err := json.Unmarshal(benchJSON, &doc); err != nil {
		return Calibration{}, fmt.Errorf("simcluster: parse bench snapshot: %w", err)
	}
	cal := Calibration{Source: source, Classes: map[LatencyClass]ClassCalibration{}}
	for _, r := range classRecipes {
		mean := 0.0
		for _, name := range r.Bench {
			b, ok := doc.Benchmarks[name]
			if !ok {
				return Calibration{}, fmt.Errorf("simcluster: bench snapshot missing %q", name)
			}
			if b.NsPerOp <= 0 {
				return Calibration{}, fmt.Errorf("simcluster: bench %q has non-positive ns_per_op", name)
			}
			mean += b.NsPerOp
		}
		cal.Classes[r.Class] = ClassCalibration{
			Bench:  r.Bench,
			MeanNs: mean,
			Dist:   r.Dist,
			Sigma:  r.Sigma,
		}
	}
	return cal, nil
}
