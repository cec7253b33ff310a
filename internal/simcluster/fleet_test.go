package simcluster

import (
	"bytes"
	"math"
	"testing"

	"hydradb/internal/testutil"
)

// TestScenarioGolden pins, per scenario x seed, the FNV-1a hash of the
// canonical result JSON at smoke scale (mirroring the ycsb golden-hash
// pins). Any change to the fleet model, the event ordering, the samplers,
// or the calibration shows up here as an explicit diff. If a hash changed
// ON PURPOSE, rerun the suite, update the constant, and note the break in
// the commit message.
func TestScenarioGolden(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		seed     int64
		hash     string
	}{
		{"routing-convergence", 1, "66490bba546f2553"},
		{"routing-convergence", 2, "bebbb0f8bf615cda"},
		{"routing-convergence", 3, "824b718fcfc5ddc3"},
		{"promotion-storm", 1, "888062916278f37e"},
		{"promotion-storm", 2, "85969ef9328a8a53"},
		{"promotion-storm", 3, "3c5ee15778df4863"},
		{"renewal-herd", 1, "e6f14552aa507bc0"},
		{"renewal-herd", 2, "978ea7236662f944"},
		{"renewal-herd", 3, "ba4c3b4a74946b07"},
		{"cost-curve", 1, "993a1fa27b3bedaf"},
		{"cost-curve", 2, "0512ce532a1f8e5d"},
		{"cost-curve", 3, "e45253e5c7874d56"},
	} {
		res, err := RunScenario(tc.scenario, ScaleSmoke, tc.seed, BugNone)
		if err != nil {
			t.Fatalf("%s/%d: %v", tc.scenario, tc.seed, err)
		}
		if res.Hash != tc.hash {
			t.Errorf("%s seed %d: hash %s, want %s", tc.scenario, tc.seed, res.Hash, tc.hash)
		}
		if len(res.Violations) > 0 {
			t.Errorf("%s seed %d: invariant violations: %v", tc.scenario, tc.seed, res.Violations)
		}
	}
}

// TestScenarioRunTwiceByteIdentical is the determinism pin behind the
// golden hashes: two runs with the same seed+config produce byte-identical
// canonical JSON, not merely equal hashes.
func TestScenarioRunTwiceByteIdentical(t *testing.T) {
	for _, name := range []string{"routing-convergence", "renewal-herd"} {
		a := testutil.Must1(RunScenario(name, ScaleSmoke, 7, BugNone))
		b := testutil.Must1(RunScenario(name, ScaleSmoke, 7, BugNone))
		ca := testutil.Must1(a.CanonicalJSON())
		cb := testutil.Must1(b.CanonicalJSON())
		if !bytes.Equal(ca, cb) {
			t.Errorf("%s: two identical runs produced different canonical bytes", name)
		}
		if a.Hash != b.Hash {
			t.Errorf("%s: hash %s vs %s", name, a.Hash, b.Hash)
		}
	}
}

// TestScenarioSeededBugs is the suite's self-test: every scenario checker
// must fail when its matching bug is seeded — a checker that cannot fail
// proves nothing.
func TestScenarioSeededBugs(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		bug      BugKind
	}{
		{"routing-convergence", BugDropBounces},
		{"promotion-storm", BugStuckPromotion},
		{"renewal-herd", BugIgnoreJitter},
		{"cost-curve", BugLeakOps},
	} {
		res, err := RunScenario(tc.scenario, ScaleSmoke, 1, tc.bug)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.scenario, tc.bug, err)
		}
		if len(res.Violations) == 0 {
			t.Errorf("%s: seeded bug %q slipped past the invariant checks", tc.scenario, tc.bug)
		}
	}
}

// TestScenarioHeadlineMetrics pins the headline numbers of the three
// EXPERIMENTS.md scenarios at smoke scale, seed 1 — the human-readable
// companions to the opaque golden hashes.
func TestScenarioHeadlineMetrics(t *testing.T) {
	conv := testutil.Must1(RunScenario("routing-convergence", ScaleSmoke, 1, BugNone))
	if got := conv.Metrics["convergence_ms"]; got != 170 {
		t.Errorf("routing convergence_ms = %v, want 170", got)
	}
	if got := conv.Metrics["moved_frac"]; got != 0.074 {
		t.Errorf("routing moved_frac = %v, want 0.074", got)
	}

	storm := testutil.Must1(RunScenario("promotion-storm", ScaleSmoke, 1, BugNone))
	if got := storm.Metrics["peak_backlog"]; got != 8 {
		t.Errorf("storm peak_backlog = %v, want 8", got)
	}
	if got := storm.Metrics["recovery_ms"]; got != 2.656 {
		t.Errorf("storm recovery_ms = %v, want 2.656", got)
	}

	herd := testutil.Must1(RunScenario("renewal-herd", ScaleSmoke, 1, BugNone))
	if got := herd.Metrics["peak_sync"]; got != 10_000 {
		t.Errorf("herd peak_sync = %v, want 10000", got)
	}
	if got := herd.Metrics["jitter_ratio"]; got != 0.1 {
		t.Errorf("herd jitter_ratio = %v, want 0.1", got)
	}
	if got := herd.Metrics["peak_bucket"]; got != 500 {
		t.Errorf("herd peak_bucket = %v, want 500", got)
	}
}

// TestScenarioRegistry pins the registry surface cmd/hydrasim exposes.
func TestScenarioRegistry(t *testing.T) {
	want := []string{"routing-convergence", "promotion-storm", "renewal-herd", "cost-curve"}
	got := Scenarios()
	if len(got) != len(want) {
		t.Fatalf("registry has %d scenarios, want %d", len(got), len(want))
	}
	for i, sc := range got {
		if sc.Name != want[i] {
			t.Errorf("scenario[%d] = %s, want %s", i, sc.Name, want[i])
		}
		if sc.Description == "" || sc.Run == nil || sc.Check == nil {
			t.Errorf("scenario %s incomplete", sc.Name)
		}
	}
	if _, ok := FindScenario("nope"); ok {
		t.Error("FindScenario invented a scenario")
	}
	if _, err := RunScenario("nope", ScaleSmoke, 1, BugNone); err == nil {
		t.Error("RunScenario: unknown scenario must error")
	}
	if _, err := RunScenario("promotion-storm", ScaleSmoke, 1, "stuck-promotio"); err == nil {
		t.Error("RunScenario: unknown bug must error, not run a healthy fleet")
	}
}

// smallFleetConfig is a fast config for mechanics tests.
func smallFleetConfig(seed int64) FleetConfig {
	return FleetConfig{
		Machines:           4,
		ShardsPerMachine:   4,
		ClientsPerMachine:  500,
		Clients:            8,
		RecordsPerShard:    32,
		OpsPerClientPerSec: 400,
		ReadPct:            90,
		TickNs:             5_000_000,
		DurationNs:         400_000_000,
		SamplesPerTick:     50,
		Seed:               seed,
	}
}

// TestFleetTracerMechanics: the full-fidelity tracers must exercise the
// real pointer-cache machinery — hits through valid cached pointers, plus
// message-path misses installing the cache.
func TestFleetTracerMechanics(t *testing.T) {
	s := testutil.Must1(NewFleetSim(smallFleetConfig(1)))
	r := s.Run()
	if r.Tracer.Ops == 0 {
		t.Fatal("tracers ran no operations")
	}
	if r.Tracer.Hits == 0 {
		t.Error("tracers never hit the pointer cache")
	}
	if r.Tracer.Misses == 0 {
		t.Error("tracers never took the message path")
	}
	if r.Tracer.Errors != 0 {
		t.Errorf("healthy fleet produced %d tracer errors", r.Tracer.Errors)
	}
	if got := r.Tracer.Hits + r.Tracer.Stale + r.Tracer.Misses; got > r.Tracer.Ops {
		t.Errorf("tracer GET outcomes %d exceed total ops %d", got, r.Tracer.Ops)
	}
	// The cohort mix must have picked up the measured hit rate.
	if r.Classes["hit"].Ops <= 0 {
		t.Error("cohort hit class empty despite tracer hits")
	}
}

// TestFleetReconfigureMechanics: after a ring rebuild the tracers must
// observe real WrongShard bounces and the cohort must converge.
func TestFleetReconfigureMechanics(t *testing.T) {
	cfg := smallFleetConfig(2)
	cfg.Events = []FleetEvent{{AtNs: 100_000_000, Kind: EventReconfigure, AddShards: 4}}
	s := testutil.Must1(NewFleetSim(cfg))
	r := s.Run()
	if r.Reconfig == nil {
		t.Fatal("no reconfiguration recorded")
	}
	if r.Shards != 4*4+4 {
		t.Errorf("ring has %d shards, want 20", r.Shards)
	}
	if r.Reconfig.MovedFrac <= 0 {
		t.Error("ring rebuild moved nothing")
	}
	if r.Tracer.Bounces == 0 {
		t.Error("tracers observed no WrongShard bounce after reconfiguration")
	}
	if r.Reconfig.ConvergedNs <= r.Reconfig.AtNs {
		t.Errorf("cohort did not converge (converged_ns=%d)", r.Reconfig.ConvergedNs)
	}
	if r.Classes["bounce"].Ops <= 0 {
		t.Error("cohort bounce class empty despite stale tables")
	}
}

// TestFleetKillMechanics: killing a machine promotes its shards elsewhere
// and the unavailability window produces failed cohort ops.
func TestFleetKillMechanics(t *testing.T) {
	cfg := smallFleetConfig(3)
	cfg.Events = []FleetEvent{{AtNs: 100_000_000, Kind: EventKill, Machine: 1}}
	s := testutil.Must1(NewFleetSim(cfg))
	r := s.Run()
	if r.Promotion == nil {
		t.Fatal("no promotion recorded")
	}
	if r.Promotion.KilledShards != 4 || r.Promotion.Promoted != 4 {
		t.Errorf("killed %d promoted %d, want 4/4", r.Promotion.KilledShards, r.Promotion.Promoted)
	}
	if r.Promotion.RecoveryNs <= 0 {
		t.Error("no recovery time recorded")
	}
	if r.OpsFailed <= 0 {
		t.Error("no failed ops during the unavailability window")
	}
	for _, sh := range s.shards {
		if sh.m.id == 1 {
			t.Errorf("shard %d still homed on the dead machine", sh.id)
		}
		if !sh.alive {
			t.Errorf("shard %d not alive after promotion", sh.id)
		}
	}
}

// TestFleetDeadShardReadFallsBack: between a kill and the promotion, a
// cached pointer into a dead machine's shard must not be served one-sided —
// the live system revokes the memory region at kill — so the read counts
// as an invalid hit and falls back to the message path.
func TestFleetDeadShardReadFallsBack(t *testing.T) {
	s := testutil.Must1(NewFleetSim(smallFleetConfig(5)))
	cl := s.clients[0]
	var key string
	var sh *shard
	for _, k := range s.keys {
		if o := s.shards[s.ring.OwnerOfKey([]byte(k))-1]; o.m.id == 1 {
			key, sh = k, o
			break
		}
	}
	res, ok := sh.store.Get([]byte(key))
	if !ok {
		t.Fatalf("preloaded key %s missing", key)
	}
	ptr := res.Ptr
	ptr.ShardID = sh.id
	cl.cache[key] = &ptrEntry{ptr: ptr, leaseExp: res.LeaseExp}
	s.killMachine(1)
	s.doGet(cl, key, 0)
	s.eng.RunUntil(1_000_000) // the read, not the client's next op or the promotion
	if s.hits != 0 {
		t.Fatalf("one-sided read of dead shard %d served a hit", sh.id)
	}
	if s.stale != 1 || s.errors != 1 {
		t.Errorf("stale=%d errors=%d, want 1/1 (invalid hit, then the message path finds the shard down)", s.stale, s.errors)
	}
}

// TestFleetOpsConservation: without seeded bugs, admitted = completed +
// failed across a mixed scenario (the core accounting identity).
func TestFleetOpsConservation(t *testing.T) {
	cfg := smallFleetConfig(4)
	cfg.LeaseTermNs = 100_000_000
	cfg.RenewJitterNs = 20_000_000
	cfg.Events = []FleetEvent{
		{AtNs: 80_000_000, Kind: EventReconfigure, AddShards: 2},
		{AtNs: 200_000_000, Kind: EventKill, Machine: 2},
	}
	s := testutil.Must1(NewFleetSim(cfg))
	r := s.Run()
	sum := r.OpsFailed
	for _, cr := range r.Classes {
		sum += cr.Ops
	}
	if diff := math.Abs(sum - r.OpsTotal); diff > math.Max(1e-6*r.OpsTotal, 0.01) {
		t.Errorf("ops not conserved: %.3f vs %.3f", sum, r.OpsTotal)
	}
	if r.RenewTotal <= 0 {
		t.Error("lease term set but no renewals modeled")
	}
}

// TestRenewalsDue checks the herd spreading math directly: with jitter the
// per-term renewal mass is conserved, just spread; without it the full
// cohort lands in the boundary tick.
func TestRenewalsDue(t *testing.T) {
	cfg := FleetConfig{
		Machines: 1, ShardsPerMachine: 1, ClientsPerMachine: 1000,
		RecordsPerShard: 8, TickNs: 10_000_000, DurationNs: 500_000_000,
		LeaseTermNs: 100_000_000,
	}
	sum := func(jitter int64) (total, peak float64) {
		c := cfg
		c.RenewJitterNs = jitter
		s := testutil.Must1(NewFleetSim(c))
		m := s.machines[0]
		ticks := c.DurationNs / c.TickNs
		for k := int64(1); k <= ticks; k++ {
			due := s.renewalsDue(m, k)
			total += due
			if due > peak {
				peak = due
			}
		}
		return total, peak
	}
	// 5 term boundaries in 500ms (100,200,300,400 fully; the 500ms one is
	// outside the last window for jitter 0, partially inside for jitter>0).
	totalSync, peakSync := sum(0)
	if peakSync != 1000 {
		t.Errorf("sync peak %.1f, want full cohort 1000", peakSync)
	}
	if totalSync != 4000 {
		t.Errorf("sync total %.1f, want 4000 (4 boundaries in window)", totalSync)
	}
	totalJit, peakJit := sum(50_000_000)
	if peakJit > 250 {
		t.Errorf("jitter peak %.1f, want <= tick/jitter share 200 (+rounding)", peakJit)
	}
	if math.Abs(totalJit-4000) > 500 {
		t.Errorf("jitter total %.1f, want ~4000 (mass conserved)", totalJit)
	}
}

// TestFleetConfigValidation pins constructor errors and defaulting.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := NewFleetSim(FleetConfig{}); err == nil {
		t.Error("empty config must error")
	}
	if _, err := NewFleetSim(FleetConfig{Machines: 1, ShardsPerMachine: 1, ReadPct: 101}); err == nil {
		t.Error("ReadPct > 100 must error")
	}
	s := testutil.Must1(NewFleetSim(FleetConfig{Machines: 2, ShardsPerMachine: 1, DurationNs: 15_000_000}))
	if s.cfg.DurationNs%s.cfg.TickNs != 0 {
		t.Errorf("duration %d not rounded to tick %d", s.cfg.DurationNs, s.cfg.TickNs)
	}
}
