package simcluster

import (
	"testing"

	"hydradb/internal/ycsb"
)

func wl(t testing.TB, records int64, ops, readPct int, dist ycsb.Distribution) *ycsb.Workload {
	t.Helper()
	w, err := ycsb.Generate(ycsb.StandardSpec(records, ops, readPct, dist, 42))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runHydra(t testing.TB, mode Mode, w *ycsb.Workload, mut func(*FleetConfig)) Result {
	t.Helper()
	cfg := FleetConfig{
		Machines:         8,
		ServerMachines:   []int{0},
		ShardsPerMachine: 4,
		Clients:          20,
		ClientMachines:   []int{2, 3, 4, 5, 6, 7},
		Mode:             mode,
		SharedCache:      true,
		Workload:         w,
		Seed:             1,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewFleetSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s.Result(mode.String())
}

func TestHydraRunCompletesAllOps(t *testing.T) {
	w := wl(t, 2000, 10000, 90, ycsb.Zipfian)
	r := runHydra(t, ModeWriteRead, w, nil)
	if r.Ops != 10000 {
		t.Fatalf("completed %d ops, want 10000", r.Ops)
	}
	if r.VirtualNs <= 0 || r.ThroughputMops <= 0 {
		t.Fatalf("bad result: %+v", r)
	}
	// Hit accounting must cover every GET exactly once.
	gets := int64(0)
	for _, req := range w.Requests {
		if req.Op == ycsb.OpRead {
			gets++
		}
	}
	if r.Hits+r.Stale+r.Misses != gets {
		t.Fatalf("hit analysis %d+%d+%d != %d GETs", r.Hits, r.Stale, r.Misses, gets)
	}
	if r.Hits == 0 {
		t.Fatal("zipfian read-heavy run produced no pointer hits")
	}
}

func TestDeterministicRuns(t *testing.T) {
	w := wl(t, 1000, 5000, 50, ycsb.Zipfian)
	r1 := runHydra(t, ModeWriteRead, w, nil)
	r2 := runHydra(t, ModeWriteRead, w, nil)
	if r1.VirtualNs != r2.VirtualNs || r1.Hits != r2.Hits || r1.Stale != r2.Stale {
		t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

// TestDesignChoiceOrdering verifies the Fig. 10 shape: Send/Recv <
// Pipeline+Write < Write Only <= Write+Read for a read-heavy zipfian
// workload.
func TestDesignChoiceOrdering(t *testing.T) {
	w := wl(t, 5000, 30000, 90, ycsb.Zipfian)
	sr := runHydra(t, ModeSendRecv, w, nil)
	wo := runHydra(t, ModeWriteOnly, w, nil)
	wr := runHydra(t, ModeWriteRead, w, nil)
	pp := runHydra(t, ModePipelineWrite, w, nil)

	if !(wo.ThroughputMops > sr.ThroughputMops) {
		t.Fatalf("RDMA Write (%.3f) must beat Send/Recv (%.3f)", wo.ThroughputMops, sr.ThroughputMops)
	}
	if !(wr.ThroughputMops > wo.ThroughputMops) {
		t.Fatalf("Write+Read (%.3f) must beat Write Only (%.3f) on read-heavy zipfian", wr.ThroughputMops, wo.ThroughputMops)
	}
	if !(wo.ThroughputMops > pp.ThroughputMops) {
		t.Fatalf("single-threaded (%.3f) must beat pipelined (%.3f)", wo.ThroughputMops, pp.ThroughputMops)
	}
	// Latency ordering too.
	if !(wo.GetMeanUs < sr.GetMeanUs) {
		t.Fatalf("write-only latency %.1f !< send/recv %.1f", wo.GetMeanUs, sr.GetMeanUs)
	}
}

func TestPointerCacheBenefitShrinksWithUpdates(t *testing.T) {
	// §6.2: the caching benefit diminishes as update ratio grows, and
	// invalid hits rise.
	wRead := wl(t, 5000, 30000, 100, ycsb.Zipfian)
	wMix := wl(t, 5000, 30000, 50, ycsb.Zipfian)
	rRead := runHydra(t, ModeWriteRead, wRead, nil)
	rMix := runHydra(t, ModeWriteRead, wMix, nil)
	if rRead.Stale != 0 {
		t.Fatalf("100%% GET run saw %d invalid hits", rRead.Stale)
	}
	if rMix.Stale == 0 {
		t.Fatal("50%% update zipfian run saw no invalid hits")
	}
	hitRateRead := float64(rRead.Hits) / float64(rRead.Hits+rRead.Misses+rRead.Stale)
	hitRateMix := float64(rMix.Hits) / float64(rMix.Hits+rMix.Misses+rMix.Stale)
	if hitRateMix >= hitRateRead {
		t.Fatalf("hit rate must fall with updates: %.3f vs %.3f", hitRateMix, hitRateRead)
	}
}

func TestUniformCachesLessThanZipfian(t *testing.T) {
	// Fig. 11: uniform workloads reuse cached pointers far less.
	wz := wl(t, 20000, 30000, 100, ycsb.Zipfian)
	wu := wl(t, 20000, 30000, 100, ycsb.Uniform)
	rz := runHydra(t, ModeWriteRead, wz, nil)
	ru := runHydra(t, ModeWriteRead, wu, nil)
	if ru.Hits >= rz.Hits {
		t.Fatalf("uniform hits %d !< zipfian hits %d", ru.Hits, rz.Hits)
	}
}

func TestZipfianHotShardPressure(t *testing.T) {
	// Skewed requests concentrate on one shard: without the RDMA-Read
	// relief, zipfian throughput must fall below uniform (the hot shard
	// serializes a disproportionate share of the requests), and the hot
	// shard must be effectively saturated.
	wz := wl(t, 5000, 20000, 50, ycsb.Zipfian)
	wu := wl(t, 5000, 20000, 50, ycsb.Uniform)
	rz := runHydra(t, ModeWriteOnly, wz, nil)
	ru := runHydra(t, ModeWriteOnly, wu, nil)
	if rz.ThroughputMops >= ru.ThroughputMops {
		t.Fatalf("zipfian throughput %.3f !< uniform %.3f", rz.ThroughputMops, ru.ThroughputMops)
	}
	if rz.MaxShardUtil < 0.9 {
		t.Fatalf("hot shard not saturated: %.3f", rz.MaxShardUtil)
	}
}

func TestReplicationLatencyOrdering(t *testing.T) {
	// Fig. 13: none < logging < strict, and logging's overhead is small.
	spec := ycsb.Spec{
		Records: 1000, Operations: 20000, InsertProportion: 1,
		Dist: ycsb.Uniform, KeyLen: 16, ValueLen: 32, Seed: 5,
	}
	w, err := ycsb.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := runHydra(t, ModeWriteOnly, w, func(c *FleetConfig) {
		c.ShardsPerMachine = 1
		c.Clients = 8
		c.MaxItemsPerShard = 40000
	})
	logging := runHydra(t, ModeWriteOnly, w, func(c *FleetConfig) {
		c.ShardsPerMachine = 1
		c.Clients = 8
		c.Replicas = 1
		c.MaxItemsPerShard = 40000
	})
	strict := runHydra(t, ModeWriteOnly, w, func(c *FleetConfig) {
		c.ShardsPerMachine = 1
		c.Clients = 8
		c.Replicas = 1
		c.Strict = true
		c.MaxItemsPerShard = 40000
	})
	if !(base.UpdMeanUs < logging.UpdMeanUs) {
		t.Fatalf("no-replication %.2fus !< logging %.2fus", base.UpdMeanUs, logging.UpdMeanUs)
	}
	if !(logging.UpdMeanUs < strict.UpdMeanUs) {
		t.Fatalf("logging %.2fus !< strict %.2fus", logging.UpdMeanUs, strict.UpdMeanUs)
	}
	// Logging overhead must be modest (paper: +12.3% for one replica)
	// while strict roughly doubles latency (paper: "consistently doubles").
	logOverhead := logging.UpdMeanUs/base.UpdMeanUs - 1
	strictOverhead := strict.UpdMeanUs/base.UpdMeanUs - 1
	if logOverhead > 0.5 {
		t.Fatalf("logging overhead %.0f%% too large", logOverhead*100)
	}
	if strictOverhead < 0.5 {
		t.Fatalf("strict overhead %.0f%% too small", strictOverhead*100)
	}
	if logging.Replicated != 20000 || strict.Replicated != 20000 {
		t.Fatalf("replication counts: %d / %d", logging.Replicated, strict.Replicated)
	}
}

func TestBaselinesRunAndLoseToHydra(t *testing.T) {
	w := wl(t, 5000, 20000, 90, ycsb.Zipfian)
	hydra := runHydra(t, ModeWriteRead, w, nil)
	for _, kind := range []BaselineKind{KindMemcached, KindRedis, KindRAMCloud} {
		b, err := NewBaselineSim(BaselineConfig{Kind: kind, Clients: 20, Workload: w, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := b.Run(kind.String())
		if r.Ops != 20000 {
			t.Fatalf("%v completed %d ops", kind, r.Ops)
		}
		if r.ThroughputMops >= hydra.ThroughputMops {
			t.Fatalf("%v throughput %.3f !< hydra %.3f", kind, r.ThroughputMops, hydra.ThroughputMops)
		}
		if r.GetMeanUs <= hydra.GetMeanUs {
			t.Fatalf("%v latency %.1f !> hydra %.1f", kind, r.GetMeanUs, hydra.GetMeanUs)
		}
	}
}

func TestRAMCloudBeatsTCPBaselines(t *testing.T) {
	// RAMCloud's native IB transport should beat IPoIB Memcached/Redis on
	// latency, as in the paper's Fig. 9.
	w := wl(t, 5000, 20000, 100, ycsb.Uniform)
	run := func(kind BaselineKind) Result {
		b, err := NewBaselineSim(BaselineConfig{Kind: kind, Clients: 20, Workload: w, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return b.Run(kind.String())
	}
	rc := run(KindRAMCloud)
	mc := run(KindMemcached)
	rd := run(KindRedis)
	if rc.GetMeanUs >= mc.GetMeanUs || rc.GetMeanUs >= rd.GetMeanUs {
		t.Fatalf("RAMCloud %.1fus !< memcached %.1fus / redis %.1fus",
			rc.GetMeanUs, mc.GetMeanUs, rd.GetMeanUs)
	}
}

func TestScaleUpQPOverheadSaturates(t *testing.T) {
	// Fig. 12(c/d): adding shards on one machine helps, then QP counts and
	// the NIC ceiling flatten the curve.
	w := wl(t, 20000, 40000, 50, ycsb.Uniform)
	tput := func(shards int) float64 {
		r := runHydra(t, ModeWriteOnly, w, func(c *FleetConfig) {
			c.ShardsPerMachine = shards
			c.Clients = 60
		})
		return r.ThroughputMops
	}
	t1, t4, t8 := tput(1), tput(4), tput(8)
	if !(t4 > t1*2) {
		t.Fatalf("1->4 shards did not scale: %.3f -> %.3f", t1, t4)
	}
	gain48 := t8 / t4
	gain14 := t4 / t1
	if gain48 >= gain14 {
		t.Fatalf("no saturation: 1->4 gain %.2f, 4->8 gain %.2f", gain14, gain48)
	}
}

func TestScaleOutUniform(t *testing.T) {
	// Fig. 12(a): uniform workloads scale with server machines.
	w := wl(t, 20000, 40000, 50, ycsb.Uniform)
	tput := func(servers []int) float64 {
		r := runHydra(t, ModeWriteRead, w, func(c *FleetConfig) {
			c.ServerMachines = servers
			c.ShardsPerMachine = 1
			c.Clients = 60
		})
		return r.ThroughputMops
	}
	t1 := tput([]int{0})
	t4 := tput([]int{0, 1, 2, 3})
	if !(t4 > t1*2) {
		t.Fatalf("scale-out failed: 1 machine %.3f, 4 machines %.3f", t1, t4)
	}
}
