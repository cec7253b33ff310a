package simcluster

import (
	"math/rand"

	"hydradb/internal/consistent"
	"hydradb/internal/kv"
	"hydradb/internal/sim"
)

// This file holds the topology primitives every simulated deployment shares
// — testbed machines, clients with remote-pointer caches, and the NIC/wire
// hop — so FleetSim and BaselineSim model the network one way.

// machine is one testbed box: a finite NIC resource, the queue-pair count
// that drives the §6.3 driver-scalability overhead, its own random stream,
// and the statistical client cohort it hosts in a fleet run.
type machine struct {
	id     int
	nic    *sim.Resource
	qps    int
	rng    *rand.Rand
	down   bool    // killed; its shards await promotion, its clients stop
	cohort float64 // statistical clients homed here
	stale  float64 // cohort members with a stale routing table
}

// ptrEntry is one cached remote pointer with its lease horizon (§4.2.2).
type ptrEntry struct {
	ptr      kv.RemotePtr
	leaseExp int64
}

// client is a full-fidelity simulated client: it owns (or shares) a pointer
// cache, routes through its own, possibly stale, view of the ring, and keeps
// a scratch key buffer for zero-allocation key rendering.
type client struct {
	id     int
	m      *machine
	view   *consistent.Ring
	cache  map[string]*ptrEntry
	keyBuf [64]byte
}

// hop moves one message of the given size from machine a to machine b on
// engine eng: source NIC service, wire propagation plus the transport's
// extra one-way latency, destination NIC service, then cont. Collocated
// endpoints still pay both NIC passes on the shared device (loopback through
// the HCA). byteNs and extraNs carry the transport (verbs, or IPoIB's copies
// and kernel crossings), so every transport funnels through the same
// three-stage pipeline.
func hop(eng *sim.Engine, c *CostModel, a, b *machine, bytes int, byteNs float64, extraNs int64, cont func()) {
	a.nic.Acquire(nicCost(c, a, bytes, byteNs), func() {
		eng.After(c.WireNs+extraNs, func() {
			b.nic.Acquire(nicCost(c, b, bytes, byteNs), cont)
		})
	})
}

// nicCost is one message's service time on m's NIC, including the QP-count
// overhead once m carries more queue pairs than the driver scales to.
func nicCost(c *CostModel, m *machine, bytes int, byteNs float64) int64 {
	cost := c.NICOpNs + int64(float64(bytes)*byteNs)
	if extra := m.qps - c.QPThreshold; extra > 0 && c.QPExtraNs > 0 {
		cost += int64(float64(extra) * c.QPExtraNs)
	}
	return cost
}
