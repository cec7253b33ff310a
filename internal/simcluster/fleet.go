package simcluster

import (
	"fmt"
	"math"
	"math/rand"

	"hydradb/internal/consistent"
	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/sim"
	"hydradb/internal/stats"
	"hydradb/internal/ycsb"
)

// FleetSim is the cluster simulator: every machine's events run on one
// sim.Engine in global timestamp order. Full-fidelity clients run the real
// pointer-cache / guardian-validation / WrongShard mechanics against real
// kv.Store shards, one event per network hop and service stage. The paper's
// figures (§6) are runs of such clients alone, sharing a pre-generated YCSB
// stream until it is exhausted. Fleet runs (§3.3's promotion, leases and
// routing at 100+ machines) add a statistical client cohort (sampler.go):
// per machine tick the cohort's operations are split across the four
// calibrated latency classes in expected value, so a million simulated
// clients cost O(machines x ticks), not O(operations). There a few clients
// per machine draw from a hot set and act as tracers: their measured
// hit/stale/miss rates feed the cohort class mix.

// BugKind seeds a deliberate defect so the scenario checkers can prove they
// fail (the regression suite's self-test, exercised by `hydrasim -bug`).
type BugKind string

// Seeded bugs.
const (
	BugNone BugKind = ""
	// BugDropBounces loses WrongShard bounces from the operation accounting
	// — the ops-conservation invariant must catch it.
	BugDropBounces BugKind = "drop-bounces"
	// BugStuckPromotion never schedules SWAT promotions after a kill — the
	// recovery invariant must catch the permanent backlog.
	BugStuckPromotion BugKind = "stuck-promotion"
	// BugIgnoreJitter silently disables renewal jitter — the thundering-herd
	// invariant must catch the undiminished renewal peak.
	BugIgnoreJitter BugKind = "ignore-jitter"
	// BugLeakOps drops a slice of message-path completions from the class
	// accounting — the ops-conservation invariant must catch the leak.
	BugLeakOps BugKind = "leak-ops"
)

// known reports whether b is BugNone or one of the seeded bugs.
func (b BugKind) known() bool {
	switch b {
	case BugNone, BugDropBounces, BugStuckPromotion, BugIgnoreJitter, BugLeakOps:
		return true
	}
	return false
}

// Mode selects the HydraDB design-choice configuration of Fig. 10.
type Mode int

// Modes. The zero value is the full design; the rest are the paper's
// incremental alternatives.
const (
	// ModeWriteRead: RDMA-Write messaging plus client remote-pointer caching
	// with one-sided RDMA Read GETs.
	ModeWriteRead Mode = iota
	// ModeSendRecv: two-sided verbs message passing (baseline of §6.2).
	ModeSendRecv
	// ModeWriteOnly: RDMA-Write driven message passing, no pointer cache.
	ModeWriteOnly
	// ModePipelineWrite: RDMA Write messaging under the decoupled
	// pipelined execution model (§6.2.1).
	ModePipelineWrite
)

// String names the mode with the paper's series labels.
func (m Mode) String() string {
	switch m {
	case ModeSendRecv:
		return "Send/Recv"
	case ModeWriteOnly:
		return "RDMA Write Only"
	case ModeWriteRead:
		return "RDMA Write + Read"
	case ModePipelineWrite:
		return "Pipeline + RDMA Write"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// FleetConfig describes one simulated deployment and run.
type FleetConfig struct {
	// Machines is the testbed size (paper: 8).
	Machines int
	// ServerMachines lists the machines hosting shards; empty = every one.
	ServerMachines []int
	// ShardsPerMachine primaries per server machine.
	ShardsPerMachine int
	// SubShards enables the §6.3 sub-sharding extension: each shard
	// *instance* keeps the client connections (QPs scale with instances,
	// not cores) and demultiplexes requests onto SubShards independent
	// sub-shard cores. 0/1 = classic one-process-per-core shards.
	SubShards int
	// Replicas per primary; Strict selects request/ack (Fig. 13).
	Replicas int
	Strict   bool
	// RecordsPerShard is the preload per initial shard of a run without a
	// Workload (default 64).
	RecordsPerShard int
	// MaxItemsPerShard sizes the stores; 0 derives it from the preload.
	MaxItemsPerShard int
	// LeasePolicy overrides the default 1–64 s popularity-scaled policy
	// (zero value = lease.DefaultPolicy) — the lease ablation knob.
	LeasePolicy lease.Policy
	// NUMAInterleaved disables the §4.1.2 NUMA awareness: every shard
	// memory operation pays the remote-node penalty.
	NUMAInterleaved bool

	// Clients is the full-fidelity client count, spread round-robin over
	// ClientMachines (empty = every machine); collocation with servers
	// happens naturally when the sets overlap.
	Clients        int
	ClientMachines []int
	// Mode selects the design-choice configuration.
	Mode Mode
	// SharedCache shares the pointer cache among clients on one machine
	// (§4.2.4); off = per-client caches.
	SharedCache bool
	// Workload, when set, is the pre-generated request stream the clients
	// share; its records are the preload. Without one every client draws
	// from an 80/20 hot set over the preloaded keys.
	Workload *ycsb.Workload
	// ReadPct is the GET share, percent, of hot-set clients and the cohort.
	ReadPct int

	// ClientsPerMachine is the statistical cohort size per machine, each
	// cohort client issuing OpsPerClientPerSec.
	ClientsPerMachine  int64
	OpsPerClientPerSec float64

	// DurationNs bounds the run; 0 runs until the Workload is exhausted.
	DurationNs     int64
	TickNs         int64
	SamplesPerTick int // latency samples drawn per machine tick

	// LeaseTermNs > 0 models cohort lease renewal: every client renews once
	// per term, spread over RenewJitterNs (0 = synchronized herd).
	LeaseTermNs   int64
	RenewJitterNs int64

	Cost      CostModel
	Admission *TokenBucket // nil = admit everything
	Events    []FleetEvent

	Seed int64
	Bug  BugKind
}

// class indexes for the per-class arrays (calibration.go lists the classes
// in this order).
const (
	idxHit = iota
	idxStale
	idxMessage
	idxBounce
	numClasses
)

// shard is one primary shard: a real kv.Store plus its service centers on
// the hosting machine. Promotion moves m (and gives it a fresh cpu).
type shard struct {
	id    uint32
	m     *machine
	cpu   *sim.Resource
	store *kv.Store
	// inst is the shared connection-owning instance thread when the
	// sub-sharding extension is enabled (§6.3); nil otherwise.
	inst *sim.Resource
	// pipelined-mode stages
	dispatch, workers, lock *sim.Resource
	// replication
	secMachines []*machine
	secApply    []*sim.Resource

	alive, inRing bool
}

// FleetSim is one configured run.
type FleetSim struct {
	cfg      FleetConfig
	eng      *sim.Engine
	machines []*machine
	shards   []*shard // index = id-1; grows on reconfigure
	clients  []*client
	ring     *consistent.Ring
	keys     []string // preloaded keys of a run without a Workload
	val      []byte

	maxItems, itemBytes int // store sizing

	// next draws a client's next operation (ok false: none left); thinkNs
	// separates a client's operations.
	next    func(cl *client) (key string, isGet, ok bool)
	thinkNs int64
	nextOp  int // Workload cursor

	specs [numClasses]LatencySpec
	hists [numClasses]*stats.Histogram

	ringShards int // shards currently in the ring
	ringAlive  int // of those, alive

	// cohort accounting (expected-value, per tick)
	opsTotal, opsFailed, opsShed float64
	classOps                     [numClasses]float64
	busyTick, renewTick          []float64
	renewTotal, renewShed        float64

	// routing convergence
	movedFrac               float64
	reconfigNs, convergedNs int64

	// promotion storm
	swat                                   *sim.Resource
	killedMachines, killedShards, promoted int
	backlog, peakBacklog                   int
	killNs, lastPromoteNs                  int64

	// client accounting
	ops, hits, stale, misses, bounces, errors int64
	replicated, putErrors                     int64
	maxPending                                int
	endNs                                     int64 // virtual time of the last completion
	getHist, updHist                          *stats.Histogram
}

// NewFleetSim builds the deployment: machines, shards, clients, preloaded
// records, calibrated samplers.
func NewFleetSim(cfg FleetConfig) (*FleetSim, error) {
	if cfg.Machines <= 0 || cfg.ShardsPerMachine <= 0 {
		return nil, fmt.Errorf("simcluster: fleet needs machines and shards")
	}
	if cfg.DurationNs < 0 || cfg.DurationNs == 0 && cfg.Workload == nil {
		return nil, fmt.Errorf("simcluster: a run without a workload needs a duration")
	}
	if cfg.TickNs <= 0 {
		cfg.TickNs = 10_000_000
	}
	if cfg.DurationNs%cfg.TickNs != 0 {
		cfg.DurationNs += cfg.TickNs - cfg.DurationNs%cfg.TickNs
	}
	if cfg.RecordsPerShard <= 0 {
		cfg.RecordsPerShard = 64
	}
	if cfg.ReadPct < 0 || cfg.ReadPct > 100 {
		return nil, fmt.Errorf("simcluster: ReadPct %d out of range", cfg.ReadPct)
	}
	subShards := max(1, cfg.SubShards)
	if subShards > 1 && cfg.Mode == ModePipelineWrite {
		return nil, fmt.Errorf("simcluster: sub-sharding and the pipelined model are mutually exclusive")
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	every := make([]int, cfg.Machines)
	for i := range every {
		every[i] = i
	}
	if len(cfg.ServerMachines) == 0 {
		cfg.ServerMachines = every
	}
	if len(cfg.ClientMachines) == 0 {
		cfg.ClientMachines = every
	}

	s := &FleetSim{
		cfg:     cfg,
		eng:     sim.NewEngine(cfg.Seed),
		specs:   samplersFromCalibration(cfg.Cost),
		getHist: stats.NewHistogram(),
		updHist: stats.NewHistogram(),
	}
	for i := range s.hists {
		s.hists[i] = stats.NewHistogram()
	}
	ticks := cfg.DurationNs / cfg.TickNs
	s.busyTick = make([]float64, ticks)
	s.renewTick = make([]float64, ticks)

	// The preload, and the request source over it.
	instances := len(cfg.ServerMachines) * cfg.ShardsPerMachine
	var records int64
	var keyOf func(int64) []byte
	if w := cfg.Workload; w != nil {
		records, keyOf, s.val = w.Spec.Records, w.Key, w.Value()
		// Live records plus headroom for every possible detached
		// out-of-place update (zipfian can concentrate them on one shard).
		// Arenas are virtual memory — pages commit only when touched — so
		// generous sizing is cheap.
		s.maxItems = int(records)*2/(instances*subShards) + w.Spec.Operations/2 + 4096
		s.itemBytes = kv.ItemSize(w.Spec.KeyLen, w.Spec.ValueLen)
		s.next, s.thinkNs = s.nextRequest, cfg.Cost.ClientThinkNs
	} else {
		s.keys = make([]string, instances*subShards*cfg.RecordsPerShard)
		for i := range s.keys {
			s.keys[i] = fmt.Sprintf("u%011d", i)
		}
		records = int64(len(s.keys))
		keyOf = func(i int64) []byte { return []byte(s.keys[i]) }
		s.val = make([]byte, 32)
		for i := range s.val {
			s.val[i] = byte('a' + i%26)
		}
		s.maxItems = cfg.RecordsPerShard*3 + 1024
		s.itemBytes = kv.ItemSize(12, len(s.val))
		s.next, s.thinkNs = s.hotSetDraw, max(1, cfg.TickNs/4)
	}
	if cfg.MaxItemsPerShard > 0 {
		s.maxItems = cfg.MaxItemsPerShard
	}

	for i := 0; i < cfg.Machines; i++ {
		s.machines = append(s.machines, &machine{
			id:     i,
			nic:    sim.NewResource(s.eng, fmt.Sprintf("nic-%d", i), 1),
			rng:    rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i))),
			cohort: float64(cfg.ClientsPerMachine),
		})
	}
	// With sub-sharding, ShardsPerMachine counts *instances*; every instance
	// hosts SubShards independent partitions behind one set of connections
	// (§6.3).
	var ids []uint32
	for _, mi := range cfg.ServerMachines {
		for k := 0; k < cfg.ShardsPerMachine; k++ {
			var inst *sim.Resource
			if subShards > 1 {
				inst = sim.NewResource(s.eng, fmt.Sprintf("inst-%d-%d", mi, k), 1)
			}
			for sub := 0; sub < subShards; sub++ {
				ids = append(ids, s.addShard(s.machines[mi], inst))
			}
		}
	}
	ring, err := consistent.Build(ids, 0)
	if err != nil {
		return nil, err
	}
	s.ring = ring

	for i := int64(0); i < records; i++ {
		key := keyOf(i)
		sh := s.shards[s.ring.OwnerOfKey(key)-1]
		if _, _, err := sh.store.Put(key, s.val); err != nil {
			return nil, fmt.Errorf("simcluster: preload: %w", err)
		}
	}

	s.swat = sim.NewResource(s.eng, "swat", max(1, cfg.Cost.SwatParallel))
	perMachine := map[int]map[string]*ptrEntry{}
	for i := 0; i < cfg.Clients; i++ {
		cl := &client{id: i, m: s.machines[cfg.ClientMachines[i%len(cfg.ClientMachines)]], view: s.ring}
		// Shared caches per machine (§4.2.4).
		cl.cache = perMachine[cl.m.id]
		if cl.cache == nil {
			cl.cache = map[string]*ptrEntry{}
			if cfg.SharedCache {
				perMachine[cl.m.id] = cl.cache
			}
		}
		s.clients = append(s.clients, cl)
	}

	// Connection accounting for the QP-count overhead: every client holds a
	// QP per shard *instance* (sub-sharding's whole point is cutting this
	// factor); replication adds primary<->secondary pairs.
	counted := map[*sim.Resource]bool{}
	for _, sh := range s.shards {
		if sh.inst == nil || !counted[sh.inst] {
			counted[sh.inst] = true
			sh.m.qps += cfg.Clients
		}
		for _, sm := range sh.secMachines {
			sh.m.qps++
			sm.qps++
		}
	}
	for _, cl := range s.clients {
		cl.m.qps += instances
	}
	return s, nil
}

// addShard creates a live in-ring shard on m, behind instance thread inst
// when sub-sharding.
func (s *FleetSim) addShard(m *machine, inst *sim.Resource) uint32 {
	id := uint32(len(s.shards) + 1)
	sh := &shard{
		id:   id,
		m:    m,
		inst: inst,
		cpu:  sim.NewResource(s.eng, fmt.Sprintf("shard-%d", id), 1),
		store: kv.NewStore(kv.Config{
			ArenaBytes: s.maxItems * (s.itemBytes + 64),
			MaxItems:   s.maxItems,
			Policy:     s.cfg.LeasePolicy,
			Clock:      s.eng.Clock(),
		}),
		alive:  true,
		inRing: true,
	}
	if s.cfg.Mode == ModePipelineWrite {
		sh.dispatch = sim.NewResource(s.eng, "dispatch", 2)
		sh.workers = sim.NewResource(s.eng, "workers", 2)
		sh.lock = sim.NewResource(s.eng, "lock", 1)
	}
	for r := 0; r < s.cfg.Replicas; r++ {
		sh.secMachines = append(sh.secMachines, s.machines[(m.id+1+r)%len(s.machines)])
		sh.secApply = append(sh.secApply, sim.NewResource(s.eng, "sec-apply", 1))
	}
	s.shards = append(s.shards, sh)
	s.ringShards++
	s.ringAlive++
	return id
}

// hop moves bytes between machines over verbs: source NIC, wire,
// destination NIC.
func (s *FleetSim) hop(a, b *machine, bytes int, cont func()) {
	hop(s.eng, &s.cfg.Cost, a, b, bytes, s.cfg.Cost.NICByteNs, 0, cont)
}

// Run executes the configured run and reports the fleet result; Result
// reports the clients' side of it.
func (s *FleetSim) Run() FleetResult {
	if s.cfg.DurationNs > 0 {
		// Per-machine cohort ticks, staggered by machine id for a
		// deterministic global interleave.
		for _, m := range s.machines {
			m := m
			s.eng.At(s.cfg.TickNs+int64(m.id), func() { s.machineTick(m, 1) })
		}
	}
	// Control-plane schedule.
	for _, ev := range s.cfg.Events {
		ev := ev
		s.eng.At(ev.AtNs, func() { s.applyEvent(ev) })
	}
	// Clients, staggered for a deterministic yet interleaved arrival order.
	for _, cl := range s.clients {
		cl := cl
		s.eng.At(int64(cl.id%97)+1, func() { s.step(cl) })
	}
	// Reclamation pump: amortized lease-expiry reclamation across all
	// shards, like the live shard loop's housekeeping slice. It stops once
	// the run ends so the engine terminates.
	var pump func()
	pump = func() {
		for _, sh := range s.shards {
			sh.store.ReclaimDue()
		}
		more := s.eng.Now()+10e6 <= s.cfg.DurationNs
		if s.cfg.DurationNs == 0 {
			more = s.ops < int64(len(s.cfg.Workload.Requests))
		}
		if more {
			s.eng.After(10e6, pump)
		}
	}
	s.eng.After(10e6, pump)

	if s.cfg.DurationNs > 0 {
		s.eng.RunUntil(s.cfg.DurationNs)
	} else {
		s.eng.Run()
	}
	return s.finalize()
}

// Result reports the clients' side of the run in the figure harness's
// terms: throughput is completed operations over the virtual time of the
// last completion.
func (s *FleetSim) Result(label string) Result {
	r := finalize(label, s.ops, s.endNs, s.getHist, s.updHist)
	r.Hits, r.Stale, r.Misses = s.hits, s.stale, s.misses
	r.Replicated = s.replicated
	r.PutErrors = s.putErrors
	r.MaxPendingReclaims = s.maxPending
	for _, sh := range s.shards {
		r.MaxShardUtil = max(r.MaxShardUtil, sh.cpu.UtilizationAt(s.endNs))
		if sh.lock != nil {
			r.MaxShardUtil = max(r.MaxShardUtil, sh.lock.UtilizationAt(s.endNs))
		}
		r.NICUtil = max(r.NICUtil, sh.m.nic.UtilizationAt(s.endNs))
	}
	return r
}

// machineTick applies one tick of statistical cohort traffic on m. Tick k
// covers virtual window [(k-1)*Tick, k*Tick).
func (s *FleetSim) machineTick(m *machine, k int64) {
	now := s.eng.Now()
	if !m.down && m.cohort > 0 {
		s.tickTraffic(m, k, now)
	}
	if s.reconfigNs > 0 && s.convergedNs == 0 {
		staleSum, clientSum := 0.0, 0.0
		for _, mm := range s.machines {
			if !mm.down {
				staleSum += mm.stale
				clientSum += mm.cohort
			}
		}
		if clientSum > 0 && staleSum <= 0.001*clientSum {
			s.convergedNs = now
		}
	}
	if now+s.cfg.TickNs <= s.cfg.DurationNs+int64(m.id) {
		s.eng.After(s.cfg.TickNs, func() { s.machineTick(m, k+1) })
	}
}

// tickTraffic splits the cohort's expected operations for one tick across
// the latency classes, charges aggregate shard busy time, and draws the
// tick's latency samples.
func (s *FleetSim) tickTraffic(m *machine, k int64, now int64) {
	c := &s.cfg.Cost
	tickSec := float64(s.cfg.TickNs) / 1e9
	opsPerClient := s.cfg.OpsPerClientPerSec * tickSec

	offered := m.cohort * opsPerClient
	admitted := s.cfg.Admission.Admit(now, offered)
	s.opsShed += offered - admitted
	s.opsTotal += admitted

	aliveFrac := 1.0
	if s.ringShards > 0 {
		aliveFrac = float64(s.ringAlive) / float64(s.ringShards)
	}
	failed := admitted * (1 - aliveFrac)
	s.opsFailed += failed
	avail := admitted - failed

	// WrongShard bounces from the stale-table share of the cohort, then
	// bounce-driven table refresh.
	var bounced float64
	if m.stale > 0 && s.movedFrac > 0 {
		bounced = avail * (m.stale / m.cohort) * s.movedFrac
		if s.cfg.Bug != BugDropBounces {
			s.classOps[idxBounce] += bounced
		}
		avail -= bounced
		m.stale -= bounceRefreshed(m.stale, opsPerClient, s.movedFrac)
		if m.stale < 0 {
			m.stale = 0
		}
	}

	// Read path mix, calibrated live from the tracer clients.
	reads := avail * float64(s.cfg.ReadPct) / 100
	writes := avail - reads
	var hitF, staleF float64
	if gets := s.hits + s.stale + s.misses; gets > 0 {
		hitF = float64(s.hits) / float64(gets)
		staleF = float64(s.stale) / float64(gets)
	}
	hits := reads * hitF
	stales := reads * staleF
	msgs := reads - hits - stales
	s.classOps[idxHit] += hits
	s.classOps[idxStale] += stales
	leak := 1.0
	if s.cfg.Bug == BugLeakOps {
		leak = 0.9
	}
	s.classOps[idxMessage] += (msgs + writes) * leak

	// Aggregate shard busy time: only through-the-shard classes occupy the
	// shard thread (hits are one-sided).
	msgGet := c.ShardFixedNs + c.ShardGetNs
	msgPut := c.ShardFixedNs + c.ShardPutNs
	busy := (stales+msgs)*float64(msgGet) + writes*float64(msgPut) +
		bounced*float64(msgGet+c.ShardFixedNs)

	// Lease-renewal herd.
	if s.cfg.LeaseTermNs > 0 {
		due := s.renewalsDue(m, k)
		adm := s.cfg.Admission.Admit(now, due)
		s.renewShed += due - adm
		s.renewTotal += adm
		s.renewTick[k-1] += adm
		busy += adm * float64(c.RenewNs)
	}
	s.busyTick[k-1] += busy

	// Latency samples for this tick's class mix.
	mix := [numClasses]float64{hits, stales, msgs + writes, bounced}
	total := 0.0
	for _, v := range mix {
		total += v
	}
	if total > 0 && s.cfg.SamplesPerTick > 0 {
		rng := m.rng
		for i := 0; i < s.cfg.SamplesPerTick; i++ {
			r := rng.Float64() * total
			ci := 0
			for ; ci < numClasses-1; ci++ {
				if r < mix[ci] {
					break
				}
				r -= mix[ci]
			}
			s.hists[ci].Record(s.specs[ci].Sample(rng))
		}
	}
}

// renewalsDue returns the expected cohort renewals for m in tick k's
// window: every client renews once per LeaseTermNs, spread uniformly over
// RenewJitterNs after each term boundary (0 = the full herd at once).
func (s *FleetSim) renewalsDue(m *machine, k int64) float64 {
	term := s.cfg.LeaseTermNs
	t0 := (k - 1) * s.cfg.TickNs
	t1 := k * s.cfg.TickNs
	jitter := s.cfg.RenewJitterNs
	if s.cfg.Bug == BugIgnoreJitter {
		jitter = 0
	}
	due := 0.0
	jLo := (t0-jitter)/term - 1
	if jLo < 1 {
		jLo = 1
	}
	for j := jLo; j*term < t1; j++ {
		b := j * term
		if jitter <= 0 {
			if b >= t0 && b < t1 {
				due += m.cohort
			}
			continue
		}
		lo, hi := max(t0, b), min(t1, b+jitter)
		if hi > lo {
			due += m.cohort * float64(hi-lo) / float64(jitter)
		}
	}
	return due
}

// applyEvent executes one control-plane event.
func (s *FleetSim) applyEvent(ev FleetEvent) {
	switch ev.Kind {
	case EventKill:
		s.killMachine(ev.Machine)
	case EventReconfigure:
		s.reconfigure(ev)
	}
}

// killMachine fails one machine; its in-ring shards queue for SWAT
// promotion (§3.3's shadow master promotion, modeled as a k-server SWAT).
func (s *FleetSim) killMachine(mi int) {
	if mi < 0 || mi >= len(s.machines) || s.machines[mi].down {
		return
	}
	s.machines[mi].down = true
	s.killedMachines++
	if s.killNs == 0 {
		s.killNs = s.eng.Now()
	}
	c := &s.cfg.Cost
	for _, sh := range s.shards {
		if sh.m.id != mi || !sh.alive || !sh.inRing {
			continue
		}
		sh := sh
		sh.alive = false
		s.ringAlive--
		s.killedShards++
		s.backlog++
		if s.backlog > s.peakBacklog {
			s.peakBacklog = s.backlog
		}
		if s.cfg.Bug == BugStuckPromotion {
			continue
		}
		cost := c.PromoteFixedNs + int64(s.cfg.RecordsPerShard)*c.PromotePerRecNs
		s.swat.Acquire(cost, func() { s.promote(sh) })
	}
}

// promote re-homes a failed shard on the next alive machine. The store
// survives (the promoted shadow replica holds the data); the service
// center starts fresh on the new home.
func (s *FleetSim) promote(sh *shard) {
	for off := 1; off <= len(s.machines); off++ {
		if cand := s.machines[(sh.m.id+off)%len(s.machines)]; !cand.down {
			sh.m = cand
			break
		}
	}
	sh.cpu = sim.NewResource(s.eng, fmt.Sprintf("shard-%d", sh.id), 1)
	sh.alive = true
	s.ringAlive++
	s.backlog--
	s.promoted++
	s.lastPromoteNs = s.eng.Now()
}

// reconfigure rebuilds the routing ring (shards removed/added), marks every
// cohort member's table stale, and migrates moved records. Removed shards
// stay readable until leases drain — cached pointers into them keep
// validating, which is exactly HydraDB's lease-bounded migration story.
func (s *FleetSim) reconfigure(ev FleetEvent) {
	old := s.ring
	var ids []uint32
	for _, sh := range s.shards {
		if sh.inRing {
			ids = append(ids, sh.id)
		}
	}
	for i := 0; i < ev.RemoveShards && len(ids) > 1; i++ {
		id := ids[len(ids)-1]
		ids = ids[:len(ids)-1]
		sh := s.shards[id-1]
		sh.inRing = false
		s.ringShards--
		if sh.alive {
			s.ringAlive--
		}
	}
	target := 0
	for i := 0; i < ev.AddShards; i++ {
		for s.machines[target%len(s.machines)].down {
			target++
		}
		ids = append(ids, s.addShard(s.machines[target%len(s.machines)], nil))
		target++
	}
	ring, err := consistent.Build(ids, 0)
	if err != nil {
		return
	}
	s.movedFrac = old.MovedArcs(ring, 8192)
	s.ring = ring
	s.reconfigNs = s.eng.Now()
	s.convergedNs = 0
	for _, m := range s.machines {
		if !m.down {
			m.stale = m.cohort
		}
	}
	// Migrate moved records to their new owners.
	for _, key := range s.keys {
		oldO := old.OwnerOfKey([]byte(key))
		newO := ring.OwnerOfKey([]byte(key))
		if oldO == newO {
			continue
		}
		if _, _, err := s.shards[newO-1].store.Put([]byte(key), s.val); err == nil {
			s.shards[oldO-1].store.Delete([]byte(key))
		}
	}
}

// ClassResult summarizes one latency class.
type ClassResult struct {
	Ops     float64 `json:"ops"`
	Samples int64   `json:"samples"`
	MeanNs  float64 `json:"mean_ns"`
	P99Ns   int64   `json:"p99_ns"`
}

// ReconfigResult reports routing-convergence metrics.
type ReconfigResult struct {
	AtNs        int64   `json:"at_ns"`
	MovedFrac   float64 `json:"moved_frac"`
	ConvergedNs int64   `json:"converged_ns"` // 0 = never converged
	BouncedOps  float64 `json:"bounced_ops"`
}

// PromotionResult reports failure-recovery metrics.
type PromotionResult struct {
	KilledMachines int   `json:"killed_machines"`
	KilledShards   int   `json:"killed_shards"`
	Promoted       int   `json:"promoted"`
	PeakBacklog    int   `json:"peak_backlog"`
	KillNs         int64 `json:"kill_ns"`
	RecoveryNs     int64 `json:"recovery_ns"` // last promotion - first kill; 0 = none
}

// TracerResult reports the full-fidelity tracer clients' counters.
type TracerResult struct {
	Ops     int64 `json:"ops"`
	Hits    int64 `json:"hits"`
	Stale   int64 `json:"stale"`
	Misses  int64 `json:"misses"`
	Bounces int64 `json:"bounces"`
	Errors  int64 `json:"errors"`
}

// FleetResult is one fleet run's canonical outcome. Field order (and
// json.Marshal's sorted map keys) define the canonical encoding the golden
// hashes pin.
type FleetResult struct {
	Machines         int                    `json:"machines"`
	Shards           int                    `json:"shards"`
	Clients          int64                  `json:"clients"`
	DurationNs       int64                  `json:"duration_ns"`
	Events           int64                  `json:"events"`
	OpsTotal         float64                `json:"ops_total"`
	OpsFailed        float64                `json:"ops_failed"`
	OpsShed          float64                `json:"ops_shed"`
	ThroughputMops   float64                `json:"throughput_mops"`
	Classes          map[string]ClassResult `json:"classes"`
	PeakShardUtil    float64                `json:"peak_shard_util"`
	RenewTotal       float64                `json:"renew_total"`
	RenewShed        float64                `json:"renew_shed"`
	PeakRenewPerTick float64                `json:"peak_renew_per_tick"`
	Reconfig         *ReconfigResult        `json:"reconfig,omitempty"`
	Promotion        *PromotionResult       `json:"promotion,omitempty"`
	Tracer           TracerResult           `json:"tracer"`
}

// finalize folds the accounting into a FleetResult.
func (s *FleetSim) finalize() FleetResult {
	r := FleetResult{
		Machines:   s.cfg.Machines,
		Shards:     s.ringShards,
		Clients:    int64(s.cfg.Machines) * s.cfg.ClientsPerMachine,
		DurationNs: s.cfg.DurationNs,
		Events:     s.eng.Events(),
		OpsTotal:   round3(s.opsTotal),
		OpsFailed:  round3(s.opsFailed),
		OpsShed:    round3(s.opsShed),
		Classes:    map[string]ClassResult{},
		RenewTotal: round3(s.renewTotal),
		RenewShed:  round3(s.renewShed),
		Tracer: TracerResult{
			Ops: s.ops, Hits: s.hits, Stale: s.stale,
			Misses: s.misses, Bounces: s.bounces, Errors: s.errors,
		},
	}
	secs := float64(s.cfg.DurationNs) / 1e9
	if secs > 0 {
		r.ThroughputMops = round3(s.opsTotal / secs / 1e6)
	}
	for i, c := range calibration {
		h := s.hists[i]
		cr := ClassResult{Ops: round3(s.classOps[i]), Samples: h.Count()}
		if h.Count() > 0 {
			cr.MeanNs = round3(h.Mean())
			cr.P99Ns = h.Percentile(99)
		}
		r.Classes[string(c.class)] = cr
	}
	denom := float64(max(1, s.ringAlive)) * float64(s.cfg.TickNs)
	for i := range s.busyTick {
		r.PeakShardUtil = max(r.PeakShardUtil, s.busyTick[i]/denom)
		r.PeakRenewPerTick = max(r.PeakRenewPerTick, s.renewTick[i])
	}
	r.PeakShardUtil = round3(r.PeakShardUtil)
	r.PeakRenewPerTick = round3(r.PeakRenewPerTick)
	if s.reconfigNs > 0 {
		r.Reconfig = &ReconfigResult{
			AtNs:        s.reconfigNs,
			MovedFrac:   round3(s.movedFrac),
			ConvergedNs: s.convergedNs,
			BouncedOps:  round3(s.classOps[idxBounce]),
		}
	}
	if s.killedShards > 0 {
		rec := int64(0)
		if s.lastPromoteNs > s.killNs && s.backlog == 0 {
			rec = s.lastPromoteNs - s.killNs
		}
		r.Promotion = &PromotionResult{
			KilledMachines: s.killedMachines,
			KilledShards:   s.killedShards,
			Promoted:       s.promoted,
			PeakBacklog:    s.peakBacklog,
			KillNs:         s.killNs,
			RecoveryNs:     rec,
		}
	}
	return r
}

// round3 trims accumulated float noise to 3 decimals so canonical JSON
// stays readable; determinism does not depend on it (same seed, same ops).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
