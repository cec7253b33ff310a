package main

import "slices"

// stride is the latency sampling interval of closed-loop runs: one op in
// eight is timed, so two clock reads stay under 3% of a 0.5 µs operation.
const stride = 8

func sampled(opNumber int64) bool { return opNumber&(stride-1) == 0 }

// quantile returns the q-quantile of sorted nanosecond samples. The clock
// ticks in whole nanoseconds and a fast path produces thousands of equal
// samples around its median, so a plain order statistic would move in 1 ns
// steps and hide a 0.1% shift; as with any binned data, the samples of one
// tick are taken as spread evenly over [v, v+1) and the quantile is
// interpolated inside the tick.
func quantile(sorted []int32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	i := int(rank)
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	lo, _ := slices.BinarySearch(sorted, v)
	hi, _ := slices.BinarySearch(sorted, v+1)
	return float64(v) + (rank-float64(lo))/float64(hi-lo)
}

// latency is the summary of one operation type's samples.
type latency struct {
	n              int
	p50, p99, p999 float64 // ns
}

func summarize(samples []int32) latency {
	slices.Sort(samples)
	return latency{
		n:    len(samples),
		p50:  quantile(samples, 0.50),
		p99:  quantile(samples, 0.99),
		p999: quantile(samples, 0.999),
	}
}

// median of a small float slice; it sorts its argument.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
