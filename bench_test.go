// Benchmark harness entry points: one testing.B benchmark per paper table/
// figure (regenerating it at a reduced scale and reporting the headline
// metric), plus live-mode microbenchmarks of the operation paths that
// ground the simulator's cost model (see internal/simcluster/cost.go and
// EXPERIMENTS.md). For full tables use: go run ./cmd/hydra-bench -fig all.
package hydradb_test

import (
	"fmt"
	"testing"

	"hydradb"
	"hydradb/internal/bench"
	"hydradb/internal/simcluster"
	"hydradb/internal/ycsb"
)

// benchScale keeps figure regeneration fast enough for -bench runs.
var benchScale = bench.Scale{Name: "bench", Records: 5000, Ops: 20000, Clients: 20}

func BenchmarkFig02_MapReduceCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.Fig02(benchScale)
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig03_G2Engines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.Fig03(benchScale)
		if len(tbl.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig09_StoreComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.Fig09(benchScale)
		if len(tbl.Rows) != 24 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig10_DesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.Fig10(benchScale)
		if len(tbl.Rows) != 24 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig11_PointerHits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.Fig11(benchScale)
		if len(tbl.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig12_Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := bench.Fig12ScaleOut(benchScale, ycsb.Uniform); len(tbl.Rows) != 7 {
			b.Fatal("bad scale-out table")
		}
		if tbl := bench.Fig12ScaleUp(benchScale, ycsb.Zipfian); len(tbl.Rows) != 8 {
			b.Fatal("bad scale-up table")
		}
	}
}

func BenchmarkFig13_Replication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := bench.Fig13(benchScale)
		if len(tbl.Rows) != 25 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkSimThroughput reports the virtual-testbed simulation rate — how
// many simulated KV operations the DES executes per wall second.
func BenchmarkSimThroughput(b *testing.B) {
	w, err := ycsb.Generate(ycsb.StandardSpec(5000, 20000, 90, ycsb.Zipfian, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		h, err := simcluster.NewHydraSim(simcluster.HydraConfig{
			Workload: w, Clients: 20, ServerMachines: []int{0},
			ClientMachines: []int{2, 3, 4, 5, 6, 7},
			Mode:           simcluster.ModeWriteRead, SharedCache: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		r := h.Run("bench")
		ops += int(r.Ops)
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simulated-ops/s")
}

// --- live-mode microbenchmarks: the real middleware path costs ---

func liveDB(b *testing.B) (*hydradb.DB, *hydradb.Client) {
	b.Helper()
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.ArenaBytesPerShard = 64 << 20
	opts.MaxItemsPerShard = 1 << 18
	db, err := hydradb.Start(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	return db, db.NewClient()
}

func BenchmarkLivePut(b *testing.B) {
	// Every update detaches an out-of-place area that stays leased (~1 s of
	// real time), so the store must hold b.N pending areas: size it to the
	// iteration count. This is the real memory price of §4.2.3's deferred
	// reclamation under a sustained update stream.
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.MaxItemsPerShard = b.N + 1<<17
	opts.ArenaBytesPerShard = (b.N + 1<<17) * 128
	db, err := hydradb.Start(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	c := db.NewClient()
	key := make([]byte, 16)
	val := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(key, fmt.Sprintf("user%012d", i&0xFFFF))
		if err := c.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveGet_RDMARead(b *testing.B) {
	_, c := liveDB(b)
	if err := c.Put([]byte("benchkey08bytes!"), make([]byte, 32)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get([]byte("benchkey08bytes!")); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// One-sided reads are invisible to the server, so the lease expires
	// every ~1 s of real time and one message GET re-arms it (§4.2.3) —
	// demand ≥99% of reads stayed one-sided rather than all of them.
	if hits := c.Counters().Snapshot().RDMAReadHits; hits < int64(b.N)*99/100 {
		b.Fatalf("only %d of %d reads stayed one-sided", hits, b.N)
	}
}

func BenchmarkLiveGet_MessagePath(b *testing.B) {
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.DisableRDMARead = true // "RDMA Write Only" mode
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 1 << 16
	db, err := hydradb.Start(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	c := db.NewClient()
	if err := c.Put([]byte("benchkey08bytes!"), make([]byte, 32)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get([]byte("benchkey08bytes!")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLiveGet_SendRecv(b *testing.B) {
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.SendRecv = true
	opts.DisableRDMARead = true
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 1 << 16
	db, err := hydradb.Start(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	c := db.NewClient()
	if err := c.Put([]byte("benchkey08bytes!"), make([]byte, 32)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get([]byte("benchkey08bytes!")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLivePipelinedGet drives the same message-only configuration as
// BenchmarkLiveGet_MessagePath through MultiGet with a full pipeline window,
// so ns/op compares a pipelined GET directly against a sequential one. The
// acceptance bar for the slot-ring work is ≥2× the sequential ops/s.
func BenchmarkLivePipelinedGet(b *testing.B) {
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.DisableRDMARead = true // "RDMA Write Only" mode
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 1 << 16
	opts.PipelineWindow = 16
	db, err := hydradb.Start(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	c := db.NewClient()
	const batch = 16
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("benchkey%02dbytes!", i))
		if err := c.Put(keys[i], make([]byte, 32)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		vals, err := c.MultiGet(keys)
		if err != nil {
			b.Fatal(err)
		}
		if len(vals) != batch || vals[0] == nil {
			b.Fatal("bad batch result")
		}
	}
}

// BenchmarkLiveMultiPut measures batched updates through the pipeline.
func BenchmarkLiveMultiPut(b *testing.B) {
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.DisableRDMARead = true
	opts.MaxItemsPerShard = b.N + 1<<17
	opts.ArenaBytesPerShard = (b.N + 1<<17) * 128
	db, err := hydradb.Start(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(db.Close)
	c := db.NewClient()
	const batch = 16
	pairs := make([]hydradb.KV, batch)
	for i := range pairs {
		pairs[i] = hydradb.KV{
			Key: []byte(fmt.Sprintf("putkey%02dbytes!!", i)),
			Val: make([]byte, 32),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		if err := c.MultiPut(pairs); err != nil {
			b.Fatal(err)
		}
	}
}
