package simcluster

import "math"

// Fleet policies: cohort routing refresh, admission control and the failure
// schedule. All are deterministic: same inputs, same outputs.

// TokenBucket admits at most RatePerSec operations per second with Burst
// tokens of headroom — the admission-control shape the ROADMAP wants the
// real cluster to adopt once simulation-tested. The fleet calls Admit once
// per machine tick with the cohort's offered op count; the remainder is
// shed (counted, not retried — shed load in an open system is the client's
// problem).
type TokenBucket struct {
	RatePerSec float64
	Burst      float64

	tokens float64
	lastNs int64
	primed bool
}

// Admit refills by elapsed virtual time and admits up to the token balance.
// A nil bucket admits everything.
func (t *TokenBucket) Admit(nowNs int64, offered float64) float64 {
	if t == nil {
		return offered
	}
	if !t.primed {
		t.tokens = t.Burst
		t.lastNs = nowNs
		t.primed = true
	}
	t.tokens += float64(nowNs-t.lastNs) / 1e9 * t.RatePerSec
	t.lastNs = nowNs
	if t.tokens > t.Burst {
		t.tokens = t.Burst
	}
	admitted := math.Min(offered, t.tokens)
	t.tokens -= admitted
	return admitted
}

// bounceRefreshed returns how many of a cohort's stale clients refresh
// their routing table during one tick in which each issued opsPerClient
// operations against a ring whose moved key fraction is movedFrac. A client
// refreshes the first time one of its requests lands on a moved shard and
// bounces (the paper's WrongShard reroute, §4.2), so the per-tick refresh
// probability is the chance of at least one bounce, 1-(1-movedFrac)^ops.
func bounceRefreshed(stale, opsPerClient, movedFrac float64) float64 {
	if movedFrac <= 0 {
		return 0
	}
	p := 1 - math.Pow(1-movedFrac, opsPerClient)
	return stale * p
}

// FleetEventKind tags a scheduled control-plane event.
type FleetEventKind string

// Control-plane event kinds.
const (
	// EventKill fails one machine: its shards become unavailable until the
	// SWAT promotes replacements (a correlated failure is several kills at
	// the same timestamp).
	EventKill FleetEventKind = "kill"
	// EventReconfigure rebuilds the routing ring (shards added/removed) and
	// marks every client's table stale — the convergence experiment.
	EventReconfigure FleetEventKind = "reconfigure"
)

// FleetEvent is one scheduled failure/reconfiguration.
type FleetEvent struct {
	AtNs    int64
	Kind    FleetEventKind
	Machine int // EventKill: which machine dies
	// EventReconfigure: shards removed from / added to the ring.
	RemoveShards int
	AddShards    int
}
