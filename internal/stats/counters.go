package stats

import "sync/atomic"

// Counter is a concurrency-safe monotonically increasing counter. Live-mode
// actors on different goroutines share these; the simulator (single-threaded)
// pays only the uncontended atomic cost.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load reports the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset zeroes the counter and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// OpCounters aggregates the per-operation counters a shard or client exports.
// Field names follow the paper's terminology: remote-pointer "hits" are GETs
// served by RDMA Read, "invalid hits" are RDMA Reads that fetched an outdated
// item (flipped guardian) and fell back to messaging (§6.2, Fig. 11).
type OpCounters struct {
	Gets           Counter
	Updates        Counter
	Inserts        Counter
	Deletes        Counter
	RDMAReadHits   Counter
	RDMAReadStale  Counter // invalid hits: guardian flipped / lease raced
	PointerMisses  Counter // GETs with no cached pointer (messaging path)
	LeaseRenewals  Counter
	LeaseRejects   Counter // renewal refused because item outdated
	Reclaims       Counter // item areas freed after lease expiry
	Replications   Counter // records shipped to secondaries
	ReplRollbacks  Counter // log re-send episodes (§5.2)
	RoutingRetries Counter // requests re-routed after epoch change
}

// SnapshotOpCounters copies current values into a plain struct for reports.
type OpSnapshot struct {
	Gets, Updates, Inserts, Deletes       int64
	RDMAReadHits, RDMAReadStale           int64
	PointerMisses                         int64
	LeaseRenewals, LeaseRejects, Reclaims int64
	Replications, ReplRollbacks           int64
	RoutingRetries                        int64
}

// Snapshot captures the counters.
func (o *OpCounters) Snapshot() OpSnapshot {
	return OpSnapshot{
		Gets:           o.Gets.Load(),
		Updates:        o.Updates.Load(),
		Inserts:        o.Inserts.Load(),
		Deletes:        o.Deletes.Load(),
		RDMAReadHits:   o.RDMAReadHits.Load(),
		RDMAReadStale:  o.RDMAReadStale.Load(),
		PointerMisses:  o.PointerMisses.Load(),
		LeaseRenewals:  o.LeaseRenewals.Load(),
		LeaseRejects:   o.LeaseRejects.Load(),
		Reclaims:       o.Reclaims.Load(),
		Replications:   o.Replications.Load(),
		ReplRollbacks:  o.ReplRollbacks.Load(),
		RoutingRetries: o.RoutingRetries.Load(),
	}
}

// Add merges another snapshot into s.
func (s *OpSnapshot) Add(o OpSnapshot) {
	s.Gets += o.Gets
	s.Updates += o.Updates
	s.Inserts += o.Inserts
	s.Deletes += o.Deletes
	s.RDMAReadHits += o.RDMAReadHits
	s.RDMAReadStale += o.RDMAReadStale
	s.PointerMisses += o.PointerMisses
	s.LeaseRenewals += o.LeaseRenewals
	s.LeaseRejects += o.LeaseRejects
	s.Reclaims += o.Reclaims
	s.Replications += o.Replications
	s.ReplRollbacks += o.ReplRollbacks
	s.RoutingRetries += o.RoutingRetries
}
