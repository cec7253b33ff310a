package simcluster

import "hydradb/internal/stats"

// Result summarizes one simulated run.
type Result struct {
	Label     string
	Ops       int64
	VirtualNs int64
	// ThroughputMops is completed operations per virtual second, in
	// millions.
	ThroughputMops float64
	// Latencies in microseconds.
	GetMeanUs, GetP99Us float64
	UpdMeanUs, UpdP99Us float64
	// Remote-pointer hit analysis (Fig. 11).
	Hits, Stale, Misses int64
	// MaxShardUtil is the utilization of the busiest serialized resource
	// (hot-shard pressure under zipfian skew).
	MaxShardUtil float64
	// NICUtil is the server NIC utilization (device saturation, §6.3).
	NICUtil float64
	// Replication accounting.
	Replicated int64
	// PutErrors counts writes rejected for store exhaustion — nonzero
	// means the run was under-provisioned and its numbers are suspect.
	PutErrors int64
	// MaxPendingReclaims is the peak count of detached items awaiting
	// lease expiry on any one shard (the memory price of leases, §4.2.3).
	MaxPendingReclaims int
}

// finalize computes derived fields from histograms.
func finalize(label string, ops int64, virtualNs int64, get, upd *stats.Histogram) Result {
	r := Result{Label: label, Ops: ops, VirtualNs: virtualNs}
	if virtualNs > 0 {
		r.ThroughputMops = float64(ops) / (float64(virtualNs) / 1e9) / 1e6
	}
	gs, us := get.Summarize(), upd.Summarize()
	r.GetMeanUs, r.GetP99Us = gs.Mean, gs.P99
	r.UpdMeanUs, r.UpdP99Us = us.Mean, us.P99
	return r
}
