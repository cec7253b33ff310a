// Package simcluster models a HydraDB testbed in virtual time: machines
// with finite NICs, single-threaded shard CPUs, clients, replication and
// the three Figure-9 baseline architectures. Actors execute the real
// hydradb data structures (kv stores, guardians, leases, pointer caches) so
// workload-dependent effects are computed, not assumed; only per-operation
// costs are parameters, grounded in the paper's testbed numbers (§6) and,
// for the fleet simulator's read-path classes, two GET latencies once
// measured on the live middleware (calibration.go).
package simcluster

// CostModel parameterizes the virtual testbed. All values are nanoseconds
// unless noted. Defaults approximate the paper's hardware: 40 Gbps
// ConnectX-3 InfiniBand (1–3 µs RDMA round trips), IPoIB for the TCP
// baselines (~100 µs request latency under load), 2.6 GHz Xeon cores.
type CostModel struct {
	// WireNs is one-way propagation + switch latency.
	WireNs int64
	// NICOpNs is NIC service per posted/received operation; 1e9/NICOpNs is
	// the device's message-rate ceiling (§6.3 saturation).
	NICOpNs int64
	// NICByteNs is per-byte serialization at 40 Gbps (~0.2 ns/B).
	NICByteNs float64
	// QPThreshold/QPExtraNs: each NIC op pays (qps-threshold)*extra when
	// the adaptor carries more queue pairs than the driver scales to —
	// "too many RDMA connections ... trigger the scalability bottleneck
	// within the network driver" (§6.3).
	QPThreshold int
	QPExtraNs   float64

	// ShardFixedNs is request detection + decode + response posting on the
	// single shard thread; ShardGetNs / ShardPutNs add the table lookup and
	// out-of-place insert work (calibrated from live microbenchmarks).
	ShardFixedNs int64
	ShardGetNs   int64
	ShardPutNs   int64
	// ReplPostNs is the shard-side cost of posting one replication RDMA
	// Write (§5.2); the NIC time is charged on the NIC resource.
	ReplPostNs int64
	// SecApplyNs is the secondary's processing per record (strict mode's
	// round trip waits for it; logging mode overlaps it).
	SecApplyNs int64

	// ClientThinkNs covers encode + cache lookup between operations.
	ClientThinkNs int64

	// SubShardDemuxNs is the per-request hand-off when the sub-sharding
	// extension is on: the instance's connection-polling thread routes the
	// request to an independent sub-shard core (§6.3's proposed mitigation
	// for the QP-count bottleneck).
	SubShardDemuxNs int64

	// NUMAPenaltyNs is added to every shard memory operation when NUMA
	// awareness is disabled (memory interleaved across nodes instead of
	// confined to the shard's domain, §4.1.2).
	NUMAPenaltyNs int64

	// SendRecvServerNs / SendRecvClientNs are the extra two-sided costs
	// (receive posting, completion handling) versus polled RDMA Write
	// message passing (§4.2.1/Fig. 10 ablation).
	SendRecvServerNs int64
	SendRecvClientNs int64

	// Pipelined execution model (§6.2.1/Fig. 5a ablation).
	PipeDispatchNs int64 // I/O thread per-request polling + enqueue
	PipeHandoffNs  int64 // queue + worker wakeup latency
	PipeWorkerNs   int64 // worker-side dequeue + response hand-back
	PipeLockNs     int64 // mutex + cache-line bouncing inside the store section

	// TCP/IPoIB transport for Memcached/Redis baselines.
	TCPExtraNs  int64   // kernel crossing + protocol per message, each way
	TCPByteNs   float64 // per-byte including copies
	KernelNs    int64   // server-side kernel receive/send CPU per request
	MCWorkerNs  int64   // memcached worker processing (hash, LRU, locks)
	MCWorkers   int     // memcached worker threads (paper: 8)
	RedisProcNs int64   // redis single-threaded command processing
	RedisShards int     // redis instances (paper: 8)

	// RAMCloud baseline: dispatch + worker over native verbs Send/Recv.
	RCDispatchNs int64
	RCWorkerNs   int64
	RCWorkers    int

	// Fleet-scale control-plane costs (cmd/hydrasim scenarios). The data
	// plane above is per-op; these parameterize the events that only matter
	// at 100+ machines: SWAT promotions, routing-table refreshes, and lease
	// renewals.

	// PromoteFixedNs is the SWAT promotion handshake per failed shard
	// (election message + secondary freeze), and PromotePerRecNs the
	// per-record replication-ring drain during promotion; both calibrated
	// against the chaos harness's measured 1.0–7.5 ms time-to-recover.
	PromoteFixedNs  int64
	PromotePerRecNs int64
	// SwatParallel is how many promotions the SWAT drives concurrently —
	// the serialization knob behind correlated-failure promotion storms.
	SwatParallel int
	// TableRefreshNs is a client's routing-table refresh round trip after a
	// WrongShard bounce (coordinator fetch + ring rebuild).
	TableRefreshNs int64
	// RenewNs is the shard CPU charged per lease renewal message — the unit
	// cost of a renewal thundering herd.
	RenewNs int64
}

// DefaultCostModel returns the calibrated testbed.
func DefaultCostModel() CostModel {
	return CostModel{
		WireNs:      900,
		NICOpNs:     70,
		NICByteNs:   0.2,
		QPThreshold: 300,
		QPExtraNs:   0.25,

		ShardFixedNs: 600,
		ShardGetNs:   250,
		ShardPutNs:   1100,
		ReplPostNs:   250,
		SecApplyNs:   500,

		ClientThinkNs: 200,

		SubShardDemuxNs: 180,
		NUMAPenaltyNs:   400,

		SendRecvServerNs: 1300,
		SendRecvClientNs: 900,

		PipeDispatchNs: 450,
		PipeHandoffNs:  1600,
		PipeWorkerNs:   350,
		PipeLockNs:     700,

		TCPExtraNs:  32000,
		TCPByteNs:   0.6,
		KernelNs:    8000,
		MCWorkerNs:  2200,
		MCWorkers:   8,
		RedisProcNs: 1500,
		RedisShards: 8,

		RCDispatchNs: 900,
		RCWorkerNs:   2500,
		RCWorkers:    7,

		PromoteFixedNs:  1_200_000, // ~1.2 ms: low end of measured chaos recovery
		PromotePerRecNs: 2_000,
		SwatParallel:    4,
		TableRefreshNs:  25_000,
		RenewNs:         400,
	}
}
