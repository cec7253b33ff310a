package simcluster

import (
	"fmt"
	"math"

	"hydradb/internal/consistent"
	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/sim"
	"hydradb/internal/stats"
	"hydradb/internal/timing"
)

// FleetSim is the shared-clock, multi-machine fleet simulator: every
// machine is its own sim.Engine composed under a sim.Fleet so events
// execute in global timestamp order, while bulk client traffic is modeled
// statistically (sampler.go) — per machine tick the cohort's operations are
// split across the four calibrated latency classes in expected value, so a
// million simulated clients cost O(machines x ticks), not O(operations).
// Real-data-structure fidelity is kept by a small set of tracer clients per
// machine that run full pointer-cache / guardian-validation / WrongShard
// mechanics against real kv.Store shards; their measured hit/stale/miss
// rates feed the cohort class mix.

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

// FleetConfig describes one fleet scenario run.
type FleetConfig struct {
	Machines          int
	ShardsPerMachine  int
	ClientsPerMachine int64 // statistical cohort size per machine
	TracersPerMachine int   // full-fidelity clients per machine
	RecordsPerShard   int

	OpsPerClientPerSec float64
	ReadPct            int // GET share of cohort traffic, percent

	DurationNs     int64
	TickNs         int64
	SamplesPerTick int // latency samples drawn per machine tick

	// LeaseTermNs > 0 models cohort lease renewal: every client renews once
	// per term, spread over RenewJitterNs (0 = synchronized herd).
	LeaseTermNs   int64
	RenewJitterNs int64
	LeasePolicy   lease.Policy // tracer shard stores; zero = default

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

// fleetShard is one primary shard: a real kv.Store plus its service center
// on the hosting machine's engine. Promotion moves home (and rebinds cpu).
type fleetShard struct {
	id     uint32
	home   int
	cpu    *sim.Resource
	store  *kv.Store
	alive  bool
	inRing bool
}

// fleetMachine is one machine: its own engine (instance in the sim.Fleet),
// NIC, and the statistical client cohort it hosts.
type fleetMachine struct {
	id     int
	eng    *sim.Engine
	nic    *sim.Resource
	alive  bool
	cohort float64 // statistical clients homed here
	stale  float64 // cohort members with a stale routing table
}

// fleetTracer is one full-fidelity client: real pointer cache, possibly
// stale ring view, real guardian-validated reads.
type fleetTracer struct {
	id    int
	home  *fleetMachine
	view  *consistent.Ring
	cache map[string]*ptrEntry
}

// FleetSim is one configured fleet run.
type FleetSim struct {
	cfg      FleetConfig
	fleet    *sim.Fleet
	clock    *timing.ManualClock // shared store clock (merged timeline)
	machines []*fleetMachine
	shards   []*fleetShard // index = id-1; grows on reconfigure
	tracers  []*fleetTracer
	ring     *consistent.Ring
	keys     []string
	val      []byte

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
	swat                             *sim.Resource
	killedShards, promoted           int
	backlog, peakBacklog             int
	killNs, lastPromoteNs            int64
	firstKillMachine, killedMachines int

	// tracer counters
	trOps, trHits, trStale, trMisses, trBounces, trErrors int64
}

// NewFleetSim builds the fleet: machines, shards, preloaded records,
// calibrated samplers.
func NewFleetSim(cfg FleetConfig) (*FleetSim, error) {
	if cfg.Machines <= 0 || cfg.ShardsPerMachine <= 0 {
		return nil, fmt.Errorf("simcluster: fleet needs machines and shards")
	}
	if cfg.TickNs <= 0 {
		cfg.TickNs = 10_000_000
	}
	if cfg.DurationNs <= 0 {
		cfg.DurationNs = 100 * cfg.TickNs
	}
	if cfg.DurationNs%cfg.TickNs != 0 {
		cfg.DurationNs += cfg.TickNs - cfg.DurationNs%cfg.TickNs
	}
	if cfg.RecordsPerShard <= 0 {
		cfg.RecordsPerShard = 64
	}
	if cfg.SamplesPerTick < 0 {
		cfg.SamplesPerTick = 0
	}
	if cfg.ReadPct < 0 || cfg.ReadPct > 100 {
		return nil, fmt.Errorf("simcluster: ReadPct %d out of range", cfg.ReadPct)
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}

	s := &FleetSim{
		cfg:   cfg,
		fleet: sim.NewFleet(cfg.Seed, cfg.Machines),
		clock: timing.NewManualClock(0),
		specs: samplersFromCalibration(cfg.Cost),
		val:   make([]byte, 32),
	}
	for i := range s.val {
		s.val[i] = byte('a' + i%26)
	}
	for i := range s.hists {
		s.hists[i] = stats.NewHistogram()
	}
	ticks := cfg.DurationNs / cfg.TickNs
	s.busyTick = make([]float64, ticks)
	s.renewTick = make([]float64, ticks)

	for i := 0; i < cfg.Machines; i++ {
		eng := s.fleet.Instance(i)
		s.machines = append(s.machines, &fleetMachine{
			id:     i,
			eng:    eng,
			nic:    sim.NewResource(eng, fmt.Sprintf("nic-%d", i), 1),
			alive:  true,
			cohort: float64(cfg.ClientsPerMachine),
		})
	}
	var ids []uint32
	for mi := 0; mi < cfg.Machines; mi++ {
		for k := 0; k < cfg.ShardsPerMachine; k++ {
			ids = append(ids, s.addShard(mi))
		}
	}
	ring, err := consistent.Build(ids, 0)
	if err != nil {
		return nil, err
	}
	s.ring = ring

	// Preload: RecordsPerShard records per initial shard, routed by ring.
	total := int64(len(ids)) * int64(cfg.RecordsPerShard)
	s.keys = make([]string, 0, total)
	for i := int64(0); i < total; i++ {
		key := fmt.Sprintf("u%011d", i)
		s.keys = append(s.keys, key)
		sh := s.shards[s.ring.OwnerOfKey([]byte(key))-1]
		if _, _, err := sh.store.Put([]byte(key), s.val); err != nil {
			return nil, fmt.Errorf("simcluster: fleet preload: %w", err)
		}
	}

	s.swat = sim.NewResource(s.fleet.Instance(0), "swat", maxInt(1, cfg.Cost.SwatParallel))
	for i := 0; i < cfg.Machines; i++ {
		for t := 0; t < cfg.TracersPerMachine; t++ {
			s.tracers = append(s.tracers, &fleetTracer{
				id:    len(s.tracers),
				home:  s.machines[i],
				view:  s.ring,
				cache: map[string]*ptrEntry{},
			})
		}
	}
	return s, nil
}

// addShard creates a live in-ring shard homed on machine mi.
func (s *FleetSim) addShard(mi int) uint32 {
	id := uint32(len(s.shards) + 1)
	maxItems := s.cfg.RecordsPerShard*3 + 1024
	itemBytes := kv.ItemSize(12, len(s.val))
	if itemBytes == 0 {
		itemBytes = 64
	}
	sh := &fleetShard{
		id:   id,
		home: mi,
		cpu:  sim.NewResource(s.machines[mi].eng, fmt.Sprintf("shard-%d", id), 1),
		store: kv.NewStore(kv.Config{
			ArenaBytes: maxItems * (itemBytes + 64),
			MaxItems:   maxItems,
			Policy:     s.cfg.LeasePolicy,
			Clock:      s.clock,
		}),
		alive:  true,
		inRing: true,
	}
	s.shards = append(s.shards, sh)
	s.ringShards++
	s.ringAlive++
	return id
}

// Fleet exposes the underlying engine fleet (tests).
func (s *FleetSim) Fleet() *sim.Fleet { return s.fleet }

// hop moves bytes between machines: source NIC, wire, destination NIC. The
// continuation lands on the destination's engine, so cross-machine work
// advances only when the fleet delivers the event in global order.
func (s *FleetSim) hop(a, b *fleetMachine, bytes int, cont func()) {
	c := &s.cfg.Cost
	srcCost := c.NICOpNs + int64(float64(bytes)*c.NICByteNs)
	dstCost := c.NICOpNs + int64(float64(bytes)*c.NICByteNs)
	a.nic.Acquire(srcCost, func() {
		b.eng.At(a.eng.Now()+c.WireNs, func() {
			b.nic.Acquire(dstCost, cont)
		})
	})
}

// hopRT is a request/response round trip ending back on a's engine.
func (s *FleetSim) hopRT(a, b *fleetMachine, bytes int, cont func()) {
	s.hop(a, b, bytes, func() { s.hop(b, a, bytes, cont) })
}

// Run executes the configured duration and reports the result.
func (s *FleetSim) Run() FleetResult {
	// Per-machine cohort ticks, staggered by machine id for a deterministic
	// global interleave.
	for _, m := range s.machines {
		m := m
		m.eng.At(s.cfg.TickNs+int64(m.id), func() { s.machineTick(m, 1) })
	}
	// Control-plane schedule on instance 0.
	for _, ev := range s.cfg.Events {
		ev := ev
		s.fleet.Instance(0).At(ev.AtNs, func() { s.applyEvent(ev) })
	}
	// Tracers.
	think := maxInt64(1, s.cfg.TickNs/4)
	for _, tr := range s.tracers {
		tr := tr
		tr.home.eng.At(int64(tr.id%97)+1, func() { s.tracerStep(tr, think) })
	}
	// Reclamation pump: amortized lease-expiry reclamation across all
	// shards, like the live shard loop's housekeeping slice.
	var pump func()
	pump = func() {
		s.clock.Set(s.fleet.Instance(0).Now())
		for _, sh := range s.shards {
			sh.store.ReclaimDue()
		}
		if s.fleet.Instance(0).Now()+10e6 <= s.cfg.DurationNs {
			s.fleet.Instance(0).After(10e6, pump)
		}
	}
	s.fleet.Instance(0).After(10e6, pump)

	s.fleet.RunUntil(s.cfg.DurationNs)
	return s.finalize()
}

// machineTick applies one tick of statistical cohort traffic on m. Tick k
// covers virtual window [(k-1)*Tick, k*Tick).
func (s *FleetSim) machineTick(m *fleetMachine, k int64) {
	now := m.eng.Now()
	s.clock.Set(now)
	if m.alive && m.cohort > 0 {
		s.tickTraffic(m, k, now)
	}
	if s.reconfigNs > 0 && s.convergedNs == 0 {
		staleSum, clientSum := 0.0, 0.0
		for _, mm := range s.machines {
			if mm.alive {
				staleSum += mm.stale
				clientSum += mm.cohort
			}
		}
		if clientSum > 0 && staleSum <= 0.001*clientSum {
			s.convergedNs = now
		}
	}
	if now+s.cfg.TickNs <= s.cfg.DurationNs+int64(m.id) {
		m.eng.After(s.cfg.TickNs, func() { s.machineTick(m, k+1) })
	}
}

// tickTraffic splits the cohort's expected operations for one tick across
// the latency classes, charges aggregate shard busy time, and draws the
// tick's latency samples.
func (s *FleetSim) tickTraffic(m *fleetMachine, k int64, now int64) {
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
	if gets := s.trHits + s.trStale + s.trMisses; gets > 0 {
		hitF = float64(s.trHits) / float64(gets)
		staleF = float64(s.trStale) / float64(gets)
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
		rng := m.eng.Rand()
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
func (s *FleetSim) renewalsDue(m *fleetMachine, k int64) float64 {
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
		lo, hi := maxInt64(t0, b), minInt64(t1, b+jitter)
		if hi > lo {
			due += m.cohort * float64(hi-lo) / float64(jitter)
		}
	}
	return due
}

// applyEvent executes one control-plane event (instance 0's engine).
func (s *FleetSim) applyEvent(ev FleetEvent) {
	s.clock.Set(s.fleet.Instance(0).Now())
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
	if mi < 0 || mi >= len(s.machines) || !s.machines[mi].alive {
		return
	}
	m := s.machines[mi]
	m.alive = false
	s.killedMachines++
	if s.killNs == 0 {
		s.killNs = s.fleet.Instance(0).Now()
		s.firstKillMachine = mi
	}
	c := &s.cfg.Cost
	for _, sh := range s.shards {
		if sh.home != mi || !sh.alive || !sh.inRing {
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
// center rebinds to the new home's engine.
func (s *FleetSim) promote(sh *fleetShard) {
	for off := 1; off <= len(s.machines); off++ {
		cand := (sh.home + off) % len(s.machines)
		if s.machines[cand].alive {
			sh.home = cand
			break
		}
	}
	sh.cpu = sim.NewResource(s.machines[sh.home].eng, fmt.Sprintf("shard-%d", sh.id), 1)
	sh.alive = true
	s.ringAlive++
	s.backlog--
	s.promoted++
	s.lastPromoteNs = s.fleet.Instance(0).Now()
	s.clock.Set(s.lastPromoteNs)
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
		for !s.machines[target%len(s.machines)].alive {
			target++
		}
		ids = append(ids, s.addShard(target%len(s.machines)))
		target++
	}
	ring, err := consistent.Build(ids, 0)
	if err != nil {
		return
	}
	s.movedFrac = old.MovedArcs(ring, 8192)
	s.ring = ring
	s.reconfigNs = s.fleet.Instance(0).Now()
	s.convergedNs = 0
	for _, m := range s.machines {
		if m.alive {
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

// tracerStep issues one full-fidelity operation for tr, then reschedules.
func (s *FleetSim) tracerStep(tr *fleetTracer, thinkNs int64) {
	eng := tr.home.eng
	if !tr.home.alive {
		return // the machine died; its tracers die with it
	}
	s.clock.Set(eng.Now())
	start := eng.Now()
	rng := eng.Rand()
	// 80/20 working set: most ops hit the tracer's 64 hot keys so the
	// pointer cache sees realistic reuse (the cohort's hit/stale mix is
	// calibrated from these counters).
	var ki int64
	if rng.Float64() < 0.8 {
		ki = (int64(tr.id)*97 + int64(rng.Intn(64))) % int64(len(s.keys))
	} else {
		ki = rng.Int63n(int64(len(s.keys)))
	}
	key := s.keys[ki]
	done := func(class int) {
		if class >= 0 {
			s.hists[class].Record(eng.Now() - start)
		}
		s.trOps++
		eng.After(thinkNs, func() { s.tracerStep(tr, thinkNs) })
	}
	if int64(rng.Intn(100)) < int64(s.cfg.ReadPct) {
		s.tracerGet(tr, key, done)
	} else {
		s.tracerMsg(tr, key, false, idxMessage, done)
	}
}

// tracerGet tries the one-sided path through the pointer cache, with real
// guardian validation against the owning store (hydra.go's rdmaRead).
func (s *FleetSim) tracerGet(tr *fleetTracer, key string, done func(int)) {
	e, ok := tr.cache[key]
	if !ok {
		s.trMisses++
		s.tracerMsg(tr, key, true, idxMessage, done)
		return
	}
	if !lease.ValidForRead(e.leaseExp, tr.home.eng.Now(), 1e6) {
		s.trStale++
		delete(tr.cache, key)
		s.tracerMsg(tr, key, true, idxStale, done)
		return
	}
	sh := s.shards[e.ptr.ShardID-1]
	bytes := int(e.ptr.DataLen) + 16
	s.hopRT(tr.home, s.machines[sh.home], bytes, func() {
		buf := make([]byte, e.ptr.DataLen)
		_, guardian, leaseExp, err := sh.store.ReadAt(e.ptr, buf)
		valid := err == nil && guardian == kv.GuardianLive
		if valid {
			k, _, okDec := kv.DecodeItem(buf)
			valid = okDec && string(k) == key
		}
		if !valid {
			s.trStale++
			delete(tr.cache, key)
			s.tracerMsg(tr, key, true, idxStale, done)
			return
		}
		s.trHits++
		if leaseExp > e.leaseExp {
			e.leaseExp = leaseExp
		}
		done(idxHit)
	})
}

// tracerMsg routes an operation through tr's (possibly stale) ring view:
// a WrongShard answer bounces, refreshes the view, and retries — the real
// reroute mechanics behind the cohort's bounce class.
func (s *FleetSim) tracerMsg(tr *fleetTracer, key string, isGet bool, class int, done func(int)) {
	viewOwner := tr.view.OwnerOfKey([]byte(key))
	actual := s.ring.OwnerOfKey([]byte(key))
	if viewOwner != actual {
		s.trBounces++
		old := s.shards[viewOwner-1]
		om := s.machines[old.home]
		refresh := func() {
			tr.home.eng.After(s.cfg.Cost.TableRefreshNs, func() {
				tr.view = s.ring
				s.tracerSend(tr, key, isGet, actual, idxBounce, done)
			})
		}
		if !om.alive {
			// Black-holed request: client times out, then refreshes.
			tr.home.eng.After(1_000_000, refresh)
			return
		}
		reqBytes := reqHeaderBytes + len(key)
		s.hop(tr.home, om, reqBytes, func() {
			old.cpu.Acquire(s.cfg.Cost.ShardFixedNs, func() {
				s.hop(om, tr.home, respHeaderBytes, refresh)
			})
		})
		return
	}
	s.tracerSend(tr, key, isGet, actual, class, done)
}

// tracerSend performs the message-path operation against the real store on
// the owning shard.
func (s *FleetSim) tracerSend(tr *fleetTracer, key string, isGet bool, sid uint32, class int, done func(int)) {
	sh := s.shards[sid-1]
	if !sh.alive {
		s.trErrors++
		done(-1)
		return
	}
	dst := s.machines[sh.home]
	c := &s.cfg.Cost
	reqBytes := reqHeaderBytes + len(key)
	proc := c.ShardFixedNs + c.ShardGetNs
	if !isGet {
		reqBytes += len(s.val)
		proc = c.ShardFixedNs + c.ShardPutNs
	}
	s.hop(tr.home, dst, reqBytes, func() {
		sh.cpu.Acquire(proc, func() {
			s.clock.Set(dst.eng.Now())
			var res kv.GetResult
			var ok bool
			respBytes := respHeaderBytes
			if isGet {
				res, ok = sh.store.Get([]byte(key))
				respBytes += len(res.Value)
			} else {
				var err error
				res, _, err = sh.store.Put([]byte(key), s.val)
				ok = err == nil
			}
			s.hop(dst, tr.home, respBytes, func() {
				if ok {
					ptr := res.Ptr
					ptr.ShardID = sid
					tr.cache[key] = &ptrEntry{ptr: ptr, leaseExp: res.LeaseExp}
				}
				done(class)
			})
		})
	})
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
		Events:     s.fleet.Events(),
		OpsTotal:   round3(s.opsTotal),
		OpsFailed:  round3(s.opsFailed),
		OpsShed:    round3(s.opsShed),
		Classes:    map[string]ClassResult{},
		RenewTotal: round3(s.renewTotal),
		RenewShed:  round3(s.renewShed),
		Tracer: TracerResult{
			Ops: s.trOps, Hits: s.trHits, Stale: s.trStale,
			Misses: s.trMisses, Bounces: s.trBounces, Errors: s.trErrors,
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
	denom := float64(maxInt(1, s.ringAlive)) * float64(s.cfg.TickNs)
	for i := range s.busyTick {
		if u := s.busyTick[i] / denom; u > r.PeakShardUtil {
			r.PeakShardUtil = u
		}
		if s.renewTick[i] > r.PeakRenewPerTick {
			r.PeakRenewPerTick = s.renewTick[i]
		}
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
