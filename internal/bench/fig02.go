package bench

import (
	"fmt"

	"hydradb/internal/sim"
	"hydradb/internal/stats"
)

// Figure 2 models the MapReduce acceleration experiment (§2.1): Hadoop and
// Spark applications reading their input either from in-memory HDFS or
// through the HydraDB cache layer (over TCP and over RDMA).
//
// The block path is simulated: mapper tasks read 64 MB blocks, each block
// fetched as 16 × 4 MB chunks (the paper's chunking). Per-path byte costs
// reflect the 2015 stacks: in-memory HDFS streams through the JVM DFSClient
// with checksums and protobuf RPCs (~300 MB/s per reader), HydraDB over
// IPoIB-TCP moves ~1.3 GB/s, and HydraDB over RDMA approaches the 40 Gbps
// wire. Application speedup then follows from each app's I/O-time fraction
// (the share of job time spent reading input, chosen per application class),
// via speedup = 1 / ((1-f) + f·(rate_old/rate_new)).
const (
	blockBytes      = 64 << 20
	chunkBytes      = 4 << 20
	hdfsByteNs      = 3.1     // ~320 MB/s effective in-memory HDFS read path
	hydraTCPByteNs  = 0.75    // ~1.3 GB/s over IPoIB TCP
	hydraRDMAByteNs = 0.18    // ~5.5 GB/s one-sided RDMA Reads
	nnRPCNs         = 70_000  // namenode open/locate RPC per block (TCP RT)
	hdfsPerBlockNs  = 450_000 // DFSClient stream setup, checksum finalize
	chunkTCPRTNs    = 66_000  // request/response kernel crossings per chunk
	chunkRDMARTNs   = 2_200   // one-sided read round trip per chunk
)

// fig02App is one application profile: its class and the fraction of its
// in-memory-HDFS runtime spent on input I/O.
type fig02App struct {
	Name   string
	IOFrac float64
}

var fig02Apps = []fig02App{
	{"Hadoop TestDFSIO-read", 0.97},
	{"Hadoop Data Loading", 0.92},
	{"Hadoop WordCount", 0.55},
	{"Hadoop Grep", 0.50},
	{"Spark WordCount", 0.28},
	{"Spark Grep", 0.24},
	{"Spark KMeans", 0.08},
	{"Spark PageRank", 0.05},
}

// fig02BlockRates measures aggregate block throughput (blocks/s) per path
// with a small DES: mappers read blocks in a closed loop against a shared
// server NIC, so contention is included.
func fig02BlockRates(mappers, blocks int) (hdfs, hydraTCP, hydraRDMA float64) {
	run := func(perChunkRT int64, byteNs float64, perBlock int64) float64 {
		eng := sim.NewEngine(1)
		nic := sim.NewResource(eng, "server-nic", 1)
		done := 0
		var read func()
		chunkService := int64(float64(chunkBytes) * byteNs)
		chunks := blockBytes / chunkBytes
		read = func() {
			if done >= blocks {
				return
			}
			done++
			// Namenode / stream setup per block.
			eng.After(perBlock+nnRPCNs, func() {
				remaining := chunks
				var fetch func()
				fetch = func() {
					nic.Acquire(chunkService, func() {
						eng.After(perChunkRT, func() {
							remaining--
							if remaining > 0 {
								fetch()
							} else {
								read()
							}
						})
					})
				}
				fetch()
			})
		}
		for m := 0; m < mappers; m++ {
			eng.After(int64(m), read)
		}
		eng.Run()
		return float64(blocks) / (float64(eng.Now()) / 1e9)
	}
	hdfs = run(0, hdfsByteNs, hdfsPerBlockNs)
	hydraTCP = run(chunkTCPRTNs, hydraTCPByteNs, 0)
	hydraRDMA = run(chunkRDMARTNs, hydraRDMAByteNs, 0)
	return
}

// Fig02 reproduces Figure 2: per-application speedup of the HydraDB cache
// layer over in-memory HDFS, with RDMA and TCP transports.
func Fig02(s Scale) *stats.Table {
	blocks := 64
	if s.Name == "full" {
		blocks = 512
	}
	hdfs, tcp, rdma := fig02BlockRates(4, blocks)
	speedup := func(f, rateNew float64) float64 {
		return 1 / ((1 - f) + f*(hdfs/rateNew))
	}
	t := &stats.Table{
		Title:   "Figure 2 — MapReduce acceleration vs in-memory HDFS (" + s.Name + " scale)",
		Headers: []string{"application", "io frac", "HydraDB(RDMA) speedup", "HydraDB(TCP) speedup"},
	}
	for _, app := range fig02Apps {
		t.AddRow(app.Name,
			fmt.Sprintf("%.2f", app.IOFrac),
			fmt.Sprintf("%.2fx", speedup(app.IOFrac, rdma)),
			fmt.Sprintf("%.2fx", speedup(app.IOFrac, tcp)))
	}
	t.AddRow("(block rates blk/s)", "-",
		fmt.Sprintf("%.0f", rdma), fmt.Sprintf("%.0f (HDFS %.0f)", tcp, hdfs))
	return t
}

// Fig03 reproduces Figure 3: G2 Sensemaking throughput versus engine count,
// HydraDB against an in-memory relational store (§2.2). Each engine is a
// closed-loop actor performing observation processing: entity lookup,
// assertion compute, entity update. The relational baseline serializes
// through a central database engine with SQL-path per-op cost; HydraDB
// spreads lookups/updates across shards with microsecond operations.
func Fig03(s Scale) *stats.Table {
	const (
		computeNs   = 120_000 // per-observation sensemaking compute
		dbOpNs      = 20_000  // relational store per-op (parse/plan/lock)
		hydraOpNs   = 3_000   // HydraDB GET/PUT round trip (measured, Fig. 9)
		hydraShards = 4
		shardSvcNs  = 1_000
		obsPerEng   = 400
	)
	run := func(engines int, hydra bool) float64 {
		eng := sim.NewEngine(1)
		var db *sim.Resource
		var shards []*sim.Resource
		if hydra {
			for i := 0; i < hydraShards; i++ {
				shards = append(shards, sim.NewResource(eng, "shard", 1))
			}
		} else {
			db = sim.NewResource(eng, "db", 1)
		}
		done := 0
		total := engines * obsPerEng
		var observe func(id int, left int)
		kvOp := func(id int, cont func()) {
			if hydra {
				sh := shards[id%hydraShards]
				sh.Acquire(shardSvcNs, func() { eng.After(hydraOpNs, cont) })
			} else {
				db.Acquire(dbOpNs, cont)
			}
		}
		observe = func(id, left int) {
			if left == 0 {
				done++
				return
			}
			// lookup -> compute -> update
			kvOp(id, func() {
				eng.After(computeNs, func() {
					kvOp(id, func() {
						observe(id, left-1)
					})
				})
			})
		}
		for i := 0; i < engines; i++ {
			i := i
			eng.After(int64(i), func() { observe(i, obsPerEng) })
		}
		eng.Run()
		return float64(total) / (float64(eng.Now()) / 1e9)
	}
	t := &stats.Table{
		Title:   "Figure 3 — G2 Sensemaking engines (" + s.Name + " scale)",
		Headers: []string{"engines", "HydraDB obs/s", "in-memory DB obs/s", "ratio"},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		h := run(n, true)
		d := run(n, false)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.0f", h), fmt.Sprintf("%.0f", d),
			fmt.Sprintf("%.1fx", h/d))
	}
	return t
}
