// Package hydradb is a resilient RDMA-driven key-value middleware for
// in-memory cluster computing — a reproduction of the SC '15 paper of the
// same name (Wang et al., IBM Research).
//
// HydraDB presents applications with a distributed hash table held in the
// aggregated DRAM of a cluster. Single-threaded shards exclusively manage
// partitions (multicore-friendly, lock-free data path); clients locate
// key-value pairs with consistent hashing and talk to shards over simulated
// RDMA verbs: requests travel as indicator-encapsulated messages via
// one-sided RDMA Writes detected by sustained polling, repeat GETs bypass
// the server CPU entirely with one-sided RDMA Reads through cached remote
// pointers, and writes are replicated to secondary shards through RDMA
// Logging with relaxed acknowledgements. A coordination service plus a SWAT
// (Status Watcher and reAct Team) provide continuous availability: when a
// primary dies, the most caught-up secondary is promoted and routing is
// re-published under a new epoch.
//
// # Quick start
//
//	db, err := hydradb.Start(hydradb.DefaultOptions())
//	if err != nil { ... }
//	defer db.Close()
//
//	c := db.NewClient()
//	c.Put([]byte("greeting"), []byte("hello, RDMA world"))
//	v, _ := c.Get([]byte("greeting"))   // second Get goes one-sided
//
// The package runs the entire cluster in-process over a simulated verbs
// fabric (see DESIGN.md for the substitution argument); the protocol stack —
// mailboxes, guardian words, leases, replication rings, failover — is the
// real one, exercised end-to-end.
package hydradb

import (
	"fmt"
	"time"

	"hydradb/internal/client"
	"hydradb/internal/cluster"
	"hydradb/internal/kv"
	"hydradb/internal/rdma"
	"hydradb/internal/stats"
	"hydradb/internal/timing"
)

// Errors surfaced by client operations.
var (
	// ErrNotFound reports a missing key.
	ErrNotFound = client.ErrNotFound
)

// Options configures a DB. Zero values select paper-faithful defaults.
type Options struct {
	// ServerMachines and ClientMachines size the simulated cluster (the
	// paper's testbed: 1–7 server machines, clients on the rest of 8).
	ServerMachines int
	ClientMachines int
	// ShardsPerMachine is the number of single-threaded shard processes per
	// server machine (paper default: 4, one per pinned core).
	ShardsPerMachine int
	// Replicas is the number of secondary shards per primary; 0 disables
	// high availability (the paper's cache mode), 1–2 match its HA mode.
	// Must be below ServerMachines: every copy lives on its own machine.
	Replicas int
	// StrictReplication selects per-record request/acknowledge instead of
	// RDMA Logging with relaxed acks (§5.2 baseline).
	StrictReplication bool
	// DisableRDMARead turns off client remote-pointer caching ("RDMA Write
	// Only" mode, §6.2).
	DisableRDMARead bool
	// SendRecv replaces RDMA-Write message passing with two-sided verbs
	// (§6.2 baseline).
	SendRecv bool
	// Pipelined runs shards under the decoupled I/O/compute model
	// (§6.2.1 baseline).
	Pipelined bool
	// SharedPointerCache lets collocated clients share remote pointers
	// through a lock-free cache (§4.2.4). Disable for isolated caches.
	SharedPointerCache bool
	// ArenaBytesPerShard and MaxItemsPerShard size each shard's store.
	ArenaBytesPerShard int
	MaxItemsPerShard   int
	// MailboxBytes is the per-slot message buffer capacity and bounds the
	// largest key+value a single request can carry (default 64 KB; the
	// MapReduce cache use case stores multi-MB chunks and raises it).
	MailboxBytes int
	// RingDepth is the number of mailbox slots per connection direction and
	// the one bound on requests in flight per connection: the batched client
	// calls (Pipeline/MultiGet/MultiPut) keep up to RingDepth outstanding on
	// either transport (default 16). Depth 1 reproduces the paper's
	// single-slot alternation protocol.
	RingDepth int
	// Fabric tunes the simulated verbs layer (latency injection, NIC
	// ceilings, QP overheads). Zero is an infinitely fast fabric.
	Fabric rdma.Config
	// Clock overrides the time source (virtual clocks for tests).
	Clock timing.Clock
}

// DefaultOptions mirrors the paper's single-server evaluation setup at a
// laptop-friendly scale.
func DefaultOptions() Options {
	return Options{
		ServerMachines:     1,
		ClientMachines:     1,
		ShardsPerMachine:   4,
		Replicas:           0,
		SharedPointerCache: true,
		ArenaBytesPerShard: 64 << 20,
		MaxItemsPerShard:   1 << 20,
	}
}

// DB is a running HydraDB deployment.
type DB struct {
	opts    Options
	cluster *cluster.Cluster
	clock   timing.Clock
	caches  []*client.PtrCache // one shared cache per client machine
	nextCli int
}

// Start builds and launches a deployment.
func Start(opts Options) (*DB, error) {
	if opts.ServerMachines <= 0 {
		opts.ServerMachines = 1
	}
	if opts.ClientMachines <= 0 {
		opts.ClientMachines = 1
	}
	if opts.ShardsPerMachine <= 0 {
		opts.ShardsPerMachine = 4
	}
	if opts.ArenaBytesPerShard <= 0 {
		opts.ArenaBytesPerShard = 64 << 20
	}
	if opts.MaxItemsPerShard <= 0 {
		opts.MaxItemsPerShard = 1 << 20
	}
	clk := opts.Clock
	if clk == nil {
		clk = timing.NewRealClock()
	}
	cl, err := cluster.New(cluster.Config{
		ServerMachines:    opts.ServerMachines,
		ClientMachines:    opts.ClientMachines,
		ShardsPerMachine:  opts.ShardsPerMachine,
		Replicas:          opts.Replicas,
		StrictReplication: opts.StrictReplication,
		SendRecv:          opts.SendRecv,
		Pipelined:         opts.Pipelined,
		MailboxBytes:      opts.MailboxBytes,
		RingDepth:         opts.RingDepth,
		Fabric:            opts.Fabric,
		Store: kv.Config{
			ArenaBytes: opts.ArenaBytesPerShard,
			MaxItems:   opts.MaxItemsPerShard,
			Clock:      clk,
		},
	})
	if err != nil {
		return nil, err
	}
	db := &DB{opts: opts, cluster: cl, clock: clk}
	if opts.SharedPointerCache {
		for i := 0; i < opts.ClientMachines; i++ {
			db.caches = append(db.caches, client.NewCache())
		}
	}
	return db, nil
}

// Client is a HydraDB client handle. It is not safe for concurrent use; run
// one per goroutine. Clients on the same machine share remote pointers when
// SharedPointerCache is on.
type Client = client.Client

// Batched-operation types for Client.Pipeline, MultiGet, and MultiPut.
type (
	// Op is one operation of a pipelined batch.
	Op = client.Op
	// KV pairs a key with a value for MultiPut.
	KV = client.KV
	// Result is the outcome of one pipelined Op; its value aliases client
	// scratch valid until the next batch.
	Result = client.Result
)

// NewClient opens a client on the next client machine (round-robin).
func (db *DB) NewClient() *Client {
	m := db.nextCli % db.opts.ClientMachines
	db.nextCli++
	return db.NewClientOn(m)
}

// NewClientOn opens a client homed on client machine m.
func (db *DB) NewClientOn(m int) *Client {
	opts := client.Options{
		Clock:       db.clock,
		UseRDMARead: !db.opts.DisableRDMARead,
	}
	if db.opts.SharedPointerCache {
		opts.Cache = db.caches[m%len(db.caches)]
	}
	return db.cluster.NewClient(m, opts)
}

// Renewer is the background lease-renewal agent (§4.2.3).
type Renewer = client.Renewer

// NewRenewer starts nothing yet; it builds a renewal agent on client
// machine m that scans that machine's shared pointer cache every period and
// renews keys accessed at least minAccess times whose leases expire within
// window. Call Start on the result. Requires SharedPointerCache.
func (db *DB) NewRenewer(m int, period, window time.Duration, minAccess uint32) *Renewer {
	return client.NewRenewer(db.NewClientOn(m), period, minAccess, window)
}

// Cluster exposes the underlying deployment for advanced use (failure
// injection, topology introspection, benchmarking).
func (db *DB) Cluster() *cluster.Cluster { return db.cluster }

// Clock exposes the deployment's time source.
func (db *DB) Clock() timing.Clock { return db.clock }

// KillShard abruptly fails a primary shard; the SWAT team will promote a
// secondary if the deployment has replicas.
func (db *DB) KillShard(id uint32) error { return db.cluster.KillShard(id) }

// ShardIDs lists the partitions.
func (db *DB) ShardIDs() []uint32 { return db.cluster.ShardIDs() }

// Stats aggregates per-shard operation counters.
func (db *DB) Stats() stats.OpSnapshot {
	var total stats.OpSnapshot
	for _, id := range db.cluster.ShardIDs() {
		if sh := db.cluster.Shard(id); sh != nil {
			total.Add(sh.Counters.Snapshot())
		}
	}
	return total
}

// Close shuts the deployment down.
func (db *DB) Close() { db.cluster.Stop() }

// String describes the deployment.
func (db *DB) String() string {
	return fmt.Sprintf("hydradb{servers=%d shards=%d replicas=%d}",
		db.opts.ServerMachines,
		db.opts.ServerMachines*db.opts.ShardsPerMachine,
		db.opts.Replicas)
}
