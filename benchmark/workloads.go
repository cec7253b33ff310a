package main

import (
	"hydradb"
	"hydradb/internal/ycsb"
)

// workload is one fixed traffic mix against one fixed topology. Every field
// is a constant of the benchmark: changing one changes what the numbers mean,
// so that is a benchmark change and not a tuning knob.
type workload struct {
	name string
	// why is the sentence BENCHMARK.json and the README carry: the regime the
	// workload pins and the layers that should and should not move it.
	why string

	servers, shards, replicas int
	// disableRead selects the paper's "RDMA Write Only" mode.
	disableRead bool
	// updatesPerS sizes each shard's store; zero keeps hydradb.DefaultOptions.
	// An out-of-place update holds the old version until its lease (1-64 s)
	// runs out, i.e. past the end of a run, so a store must hold every update
	// of a run. The budget is two to three times what a shard absorbs today:
	// headroom for a faster system, yet small enough that zeroing the store
	// does not drown the load in setup_s.
	updatesPerS int

	clients int
	records int64
	readPct int
	dist    ycsb.Distribution
	// rate > 0 makes the workload open loop at that many ops/s.
	rate int
}

// workloads are in the order they are run and documented.
var workloads = []workload{
	{
		name: "read_hot",
		why: "95/5 zipfian over 100k records on 1 shard: ~90% of GETs go one-sided " +
			"(pointer cache, lfmap, RDMA Read, guardian check); shard-side work should not move it",
		servers: 1, shards: 1, updatesPerS: 300_000,
		clients: 2, records: 100_000, readPct: 95, dist: ycsb.Zipfian,
	},
	{
		name: "read_msg",
		why: "95/5 uniform over 1M records, RDMA Read off: every op crosses route, encode, mailbox, " +
			"shard poll, hashtable, kv, reply; client-cache and one-sided work should not move it",
		servers: 1, shards: 1, disableRead: true, updatesPerS: 150_000,
		clients: 2, records: 1_000_000, readPct: 95, dist: ycsb.Uniform,
	},
	{
		name: "update_heavy",
		why: "read_hot at 50/50 (YCSB-A): out-of-place Put, arena alloc, guardian flips that stale " +
			"cached pointers, deferred reclaim; a read-path gain that costs writes shows here",
		servers: 1, shards: 1, updatesPerS: 600_000,
		clients: 2, records: 100_000, readPct: 50, dist: ycsb.Zipfian,
	},
	{
		name: "repl_write",
		why: "5/95 uniform on 2 servers with 1 replica, RDMA Read off: RDMA Logging, relaxed acks and " +
			"secondary apply do most of the work; put_p50_us minus read_msg's is the replication cost",
		servers: 2, shards: 1, replicas: 1, disableRead: true, updatesPerS: 300_000,
		clients: 2, records: 100_000, readPct: 5, dist: ycsb.Uniform,
	},
	{
		name: "paced_default",
		why: "DefaultOptions (4 shards), 1 client, open loop at 500 ops/s: shards idle between " +
			"requests, so idle back-off and wake-up cost are the whole story; throughput work is irrelevant",
		servers: 1, shards: 4,
		clients: 1, records: 200_000, readPct: 50, dist: ycsb.Uniform, rate: 500,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// itemBytes is the arena size class of a 16 B key + 32 B value item.
const itemBytes = 64

// options is the deployment the workload runs against for trafficSeconds of
// warm-up and measurement.
func (w *workload) options(trafficSeconds float64) hydradb.Options {
	o := hydradb.DefaultOptions()
	o.ServerMachines = w.servers
	o.ShardsPerMachine = w.shards
	o.Replicas = w.replicas
	o.DisableRDMARead = w.disableRead
	if w.updatesPerS > 0 {
		o.MaxItemsPerShard = int(w.records) + int(float64(w.updatesPerS)*trafficSeconds)
		o.ArenaBytesPerShard = o.MaxItemsPerShard * itemBytes
	}
	return o
}

// smoke shrinks the workload to a size a unit test can afford; the numbers
// it produces mean nothing.
func (w workload) smoke() workload {
	if w.records > 20_000 {
		w.records = 20_000
	}
	return w
}
