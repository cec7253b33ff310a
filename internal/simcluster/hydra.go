package simcluster

import (
	"fmt"

	"hydradb/internal/consistent"
	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/message"
	"hydradb/internal/sim"
	"hydradb/internal/stats"
	"hydradb/internal/ycsb"
)

// Mode selects the HydraDB design-choice configuration of Fig. 10.
type Mode int

// Modes, in the paper's incremental order.
const (
	// ModeSendRecv: two-sided verbs message passing (baseline of §6.2).
	ModeSendRecv Mode = iota
	// ModeWriteOnly: RDMA-Write driven message passing, no pointer cache.
	ModeWriteOnly
	// ModeWriteRead: + client remote-pointer caching with RDMA Read GETs.
	ModeWriteRead
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

// HydraConfig describes one simulated deployment + workload run.
type HydraConfig struct {
	// Machines is the testbed size (paper: 8).
	Machines int
	// ServerMachines lists machine indices hosting shards.
	ServerMachines []int
	// ShardsPerMachine primaries per server machine.
	ShardsPerMachine int
	// Clients is the total client count; they are spread round-robin over
	// ClientMachines (collocation with servers happens naturally when the
	// sets overlap, as in the paper's 7-server scale-out).
	Clients        int
	ClientMachines []int
	// Mode selects the design-choice configuration.
	Mode Mode
	// SharedCache shares the pointer cache among clients on one machine
	// (§4.2.4); off = per-client caches.
	SharedCache bool
	// Replicas per primary; Strict selects request/ack (Fig. 13).
	Replicas int
	Strict   bool
	// SubShards enables the §6.3 sub-sharding extension: each shard
	// *instance* keeps the client connections (QPs scale with instances,
	// not cores) and demultiplexes requests onto SubShards independent
	// sub-shard cores. 0/1 = classic one-process-per-core shards.
	SubShards int
	// LeasePolicy overrides the default 1–64 s popularity-scaled policy
	// (zero value = lease.DefaultPolicy) — the lease ablation knob.
	LeasePolicy lease.Policy
	// NUMAInterleaved disables the §4.1.2 NUMA awareness: every shard
	// memory operation pays the remote-node penalty.
	NUMAInterleaved bool
	// Workload is the pre-generated request stream.
	Workload *ycsb.Workload
	// Cost is the testbed cost model.
	Cost CostModel
	// Seed drives simulation randomness.
	Seed int64
	// MaxItemsPerShard sizes stores; defaults to records*3/shards.
	MaxItemsPerShard int
}

type simShard struct {
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
}

// HydraSim is one run instance.
type HydraSim struct {
	cfg      HydraConfig
	eng      *sim.Engine
	machines []*machine
	shards   map[uint32]*simShard
	ring     *consistent.Ring
	clients  []*simClient

	nextOp    int
	completed int64
	getHist   *stats.Histogram
	updHist   *stats.Histogram

	hits, stale, misses int64
	replicated          int64
	putErrors           int64
	maxPending          int
	endNs               int64 // virtual time of the last op completion
}

// NewHydraSim builds the deployment and preloads the records.
func NewHydraSim(cfg HydraConfig) (*HydraSim, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("simcluster: workload required")
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 8
	}
	if cfg.ShardsPerMachine <= 0 {
		cfg.ShardsPerMachine = 4
	}
	if len(cfg.ServerMachines) == 0 {
		cfg.ServerMachines = []int{0}
	}
	if len(cfg.ClientMachines) == 0 {
		for i := 1; i < cfg.Machines; i++ {
			cfg.ClientMachines = append(cfg.ClientMachines, i)
		}
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 50
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}

	h := &HydraSim{
		cfg:     cfg,
		eng:     sim.NewEngine(cfg.Seed),
		shards:  map[uint32]*simShard{},
		getHist: stats.NewHistogram(),
		updHist: stats.NewHistogram(),
	}
	for i := 0; i < cfg.Machines; i++ {
		h.machines = append(h.machines, &machine{
			id:  i,
			nic: sim.NewResource(h.eng, fmt.Sprintf("nic-%d", i), 1),
		})
	}

	subShards := cfg.SubShards
	if subShards <= 0 {
		subShards = 1
	}
	if subShards > 1 && cfg.Mode == ModePipelineWrite {
		return nil, fmt.Errorf("simcluster: sub-sharding and the pipelined model are mutually exclusive")
	}

	// Shards. With sub-sharding, ShardsPerMachine counts *instances*; every
	// instance hosts SubShards independent partitions behind one set of
	// connections (§6.3).
	var ids []uint32
	next := uint32(1)
	records := cfg.Workload.Spec.Records
	totalInstances := len(cfg.ServerMachines) * cfg.ShardsPerMachine
	totalShards := totalInstances * subShards
	maxItems := cfg.MaxItemsPerShard
	if maxItems == 0 {
		// Live records plus headroom for every possible detached
		// out-of-place update (zipfian can concentrate them on one shard).
		// Arenas are virtual memory — pages commit only when touched — so
		// generous sizing is cheap.
		maxItems = int(records)*2/totalShards + cfg.Workload.Spec.Operations/2 + 4096
	}
	itemBytes := kv.ItemSize(cfg.Workload.Spec.KeyLen, cfg.Workload.Spec.ValueLen)
	for _, mi := range cfg.ServerMachines {
		for s := 0; s < cfg.ShardsPerMachine; s++ {
			var inst *sim.Resource
			if subShards > 1 {
				inst = sim.NewResource(h.eng, fmt.Sprintf("inst-%d-%d", mi, s), 1)
			}
			for sub := 0; sub < subShards; sub++ {
				id := next
				next++
				ids = append(ids, id)
				m := h.machines[mi]
				sh := &simShard{
					id:   id,
					m:    m,
					inst: inst,
					cpu:  sim.NewResource(h.eng, fmt.Sprintf("shard-%d", id), 1),
					store: kv.NewStore(kv.Config{
						ArenaBytes: maxItems * (itemBytes + 64),
						MaxItems:   maxItems,
						Policy:     cfg.LeasePolicy,
						Clock:      h.eng.Clock(),
					}),
				}
				if cfg.Mode == ModePipelineWrite {
					sh.dispatch = sim.NewResource(h.eng, "dispatch", 2)
					sh.workers = sim.NewResource(h.eng, "workers", 2)
					sh.lock = sim.NewResource(h.eng, "lock", 1)
				}
				for r := 0; r < cfg.Replicas; r++ {
					sm := h.machines[(mi+1+r)%cfg.Machines]
					sh.secMachines = append(sh.secMachines, sm)
					sh.secApply = append(sh.secApply, sim.NewResource(h.eng, "sec-apply", 1))
				}
				h.shards[id] = sh
			}
		}
	}
	ring, err := consistent.Build(ids, 0)
	if err != nil {
		return nil, err
	}
	h.ring = ring

	// Connection accounting for the QP-count overhead: every client holds a
	// QP per shard *instance* (sub-sharding's whole point is cutting this
	// factor); replication adds primary<->secondary pairs.
	perInstanceOnce := map[*sim.Resource]bool{}
	for _, sh := range h.shards {
		if sh.inst == nil {
			sh.m.qps += cfg.Clients
		} else if !perInstanceOnce[sh.inst] {
			perInstanceOnce[sh.inst] = true
			sh.m.qps += cfg.Clients
		}
		for _, sm := range sh.secMachines {
			sh.m.qps++
			sm.qps++
		}
	}
	for i := 0; i < cfg.Clients; i++ {
		m := h.machines[cfg.ClientMachines[i%len(cfg.ClientMachines)]]
		m.qps += totalInstances
		h.clients = append(h.clients, &simClient{id: i, m: m})
	}
	// Shared caches per machine (§4.2.4).
	if cfg.SharedCache {
		perMachine := map[int]map[string]*ptrEntry{}
		for _, cl := range h.clients {
			c, ok := perMachine[cl.m.id]
			if !ok {
				c = map[string]*ptrEntry{}
				perMachine[cl.m.id] = c
			}
			cl.cache = c
		}
	} else {
		for _, cl := range h.clients {
			cl.cache = map[string]*ptrEntry{}
		}
	}

	// Preload records (the YCSB load phase; not measured).
	val := cfg.Workload.Value()
	for i := int64(0); i < records; i++ {
		key := cfg.Workload.Key(i)
		sh := h.shards[h.ring.OwnerOfKey(key)]
		if _, _, err := sh.store.Put(key, val); err != nil {
			return nil, fmt.Errorf("simcluster: preload: %w", err)
		}
	}
	return h, nil
}

// Engine exposes the event engine (tests).
func (h *HydraSim) Engine() *sim.Engine { return h.eng }

// nicCost is the per-op NIC service time on machine m.
func (h *HydraSim) nicCost(m *machine, bytes int) int64 {
	c := &h.cfg.Cost
	cost := c.NICOpNs + int64(float64(bytes)*c.NICByteNs)
	if extra := m.qps - c.QPThreshold; extra > 0 && c.QPExtraNs > 0 {
		cost += int64(float64(extra) * c.QPExtraNs)
	}
	return cost
}

// hop moves bytes from machine a to machine b: source NIC service, wire
// propagation, destination NIC service, then cont. Collocated endpoints
// still pay both NIC passes on the shared device (loopback through the HCA).
func (h *HydraSim) hop(a, b *machine, bytes int, cont func()) {
	rawHop(h.eng, a, b, h.nicCost(a, bytes), h.nicCost(b, bytes), h.cfg.Cost.WireNs, cont)
}

// Run executes the workload to completion and reports the result.
func (h *HydraSim) Run(label string) Result {
	for _, cl := range h.clients {
		cl := cl
		// Stagger starts by a few ns for deterministic yet interleaved
		// arrival order.
		h.eng.After(int64(cl.id), func() { h.step(cl) })
	}
	// Reclamation pump: the amortized lease-expiry reclamation the live
	// shard loop performs, as a periodic virtual-time task per shard. It
	// stops rescheduling once the workload drains so the engine terminates.
	var pump func(sh *simShard)
	pump = func(sh *simShard) {
		sh.store.ReclaimDue()
		if h.completed < int64(len(h.cfg.Workload.Requests)) {
			h.eng.After(10e6, func() { pump(sh) })
		}
	}
	for _, sh := range h.shards {
		sh := sh
		h.eng.After(10e6, func() { pump(sh) })
	}
	h.eng.Run()
	r := finalize(label, h.completed, h.endNs, h.getHist, h.updHist)
	r.Hits, r.Stale, r.Misses = h.hits, h.stale, h.misses
	r.Replicated = h.replicated
	r.PutErrors = h.putErrors
	r.MaxPendingReclaims = h.maxPending
	for _, sh := range h.shards {
		u := sh.cpu.UtilizationAt(h.endNs)
		if sh.lock != nil {
			if lu := sh.lock.UtilizationAt(h.endNs); lu > u {
				u = lu
			}
		}
		if u > r.MaxShardUtil {
			r.MaxShardUtil = u
		}
	}
	var nicU float64
	for _, mi := range h.cfg.ServerMachines {
		if u := h.machines[mi].nic.UtilizationAt(h.endNs); u > nicU {
			nicU = u
		}
	}
	r.NICUtil = nicU
	return r
}

// step issues the client's next operation.
func (h *HydraSim) step(cl *simClient) {
	if h.nextOp >= len(h.cfg.Workload.Requests) {
		return
	}
	req := h.cfg.Workload.Requests[h.nextOp]
	h.nextOp++
	key := string(h.cfg.Workload.KeyInto(cl.keyBuf[:], req.KeyIdx))
	start := h.eng.Now()
	switch req.Op {
	case ycsb.OpRead:
		h.doGet(cl, key, start)
	default: // update & insert are server-handled writes
		h.msgOp(cl, key, message.OpPut, start)
	}
}

func (h *HydraSim) complete(cl *simClient, start int64, hist *stats.Histogram) {
	hist.Record(h.eng.Now() - start)
	h.completed++
	h.endNs = h.eng.Now()
	h.eng.After(h.cfg.Cost.ClientThinkNs, func() { h.step(cl) })
}

const (
	reqHeaderBytes  = 16
	respHeaderBytes = 38
)

// doGet first tries the one-sided path (§4.2.2), falling back to messaging.
func (h *HydraSim) doGet(cl *simClient, key string, start int64) {
	if h.cfg.Mode == ModeWriteRead {
		if e, ok := cl.cache[key]; ok {
			if lease.ValidForRead(e.leaseExp, h.eng.Now(), 1e6) {
				h.rdmaRead(cl, key, e, start)
				return
			}
			h.stale++
			delete(cl.cache, key)
			h.msgOp(cl, key, message.OpGet, start)
			return
		}
		h.misses++
	} else {
		h.misses++
	}
	h.msgOp(cl, key, message.OpGet, start)
}

// rdmaRead is the one-sided GET: one round trip, zero shard CPU.
func (h *HydraSim) rdmaRead(cl *simClient, key string, e *ptrEntry, start int64) {
	sh, ok := h.shards[e.ptr.ShardID]
	if !ok {
		h.stale++
		delete(cl.cache, key)
		h.msgOp(cl, key, message.OpGet, start)
		return
	}
	bytes := int(e.ptr.DataLen) + 16
	h.hop(cl.m, sh.m, bytes, func() {
		h.hop(sh.m, cl.m, bytes, func() {
			// Validate against the real store state at fetch time.
			buf := make([]byte, e.ptr.DataLen)
			_, guardian, leaseExp, err := sh.store.ReadAt(e.ptr, buf)
			valid := err == nil && guardian == kv.GuardianLive
			if valid {
				k, _, okDec := kv.DecodeItem(buf)
				valid = okDec && string(k) == key
			}
			if !valid {
				// Invalid hit: outdated item observed; re-fetch through the
				// server (§4.2.3). The extra round trip stays in this op's
				// latency, as in the paper.
				h.stale++
				delete(cl.cache, key)
				h.msgOp(cl, key, message.OpGet, start)
				return
			}
			h.hits++
			if leaseExp > e.leaseExp {
				e.leaseExp = leaseExp
			}
			h.complete(cl, start, h.getHist)
		})
	})
}

// msgOp is the RDMA-Write (or Send/Recv) message path through the shard.
func (h *HydraSim) msgOp(cl *simClient, key string, op message.Op, start int64) {
	sh := h.shards[h.ring.OwnerOfKey([]byte(key))]
	c := &h.cfg.Cost
	reqBytes := reqHeaderBytes + len(key)
	if op == message.OpPut {
		reqBytes += h.cfg.Workload.Spec.ValueLen
	}
	h.hop(cl.m, sh.m, reqBytes, func() {
		h.serve(sh, op, func() (respVal int, after func(), gate func(func())) {
			// Executed when the shard thread picks the request up.
			return h.applyOp(cl, sh, key, op)
		}, func(respVal int, after func()) {
			respBytes := respHeaderBytes + respVal
			h.hop(sh.m, cl.m, respBytes, func() {
				if after != nil {
					after()
				}
				extra := int64(0)
				if h.cfg.Mode == ModeSendRecv {
					extra = c.SendRecvClientNs
				}
				if extra > 0 {
					h.eng.After(extra, func() { h.finishOp(cl, op, start) })
				} else {
					h.finishOp(cl, op, start)
				}
			})
		})
	})
}

func (h *HydraSim) finishOp(cl *simClient, op message.Op, start int64) {
	if op == message.OpGet {
		h.complete(cl, start, h.getHist)
	} else {
		h.complete(cl, start, h.updHist)
	}
}

// serve routes a request through the shard's execution model, then calls
// respond with the result of work(). work may return a gate that defers the
// response (strict replication waits for acks, §5.2).
func (h *HydraSim) serve(sh *simShard, op message.Op, work func() (int, func(), func(func())), respond func(int, func())) {
	c := &h.cfg.Cost
	proc := c.ShardFixedNs
	if h.cfg.NUMAInterleaved {
		// Memory not confined to the shard thread's NUMA domain: every
		// request pays remote-node access latency (§4.1.2).
		proc += c.NUMAPenaltyNs
	}
	if op == message.OpGet {
		proc += c.ShardGetNs
	} else {
		proc += c.ShardPutNs + int64(len(sh.secMachines))*c.ReplPostNs
		if h.cfg.Strict && len(sh.secMachines) > 0 {
			// Strict request/ack occupies the single shard thread for the
			// whole ack round trip — the serialization that makes it
			// "consistently double the average latency" (Fig. 13). The
			// secondaries are contacted in parallel, so one round trip's
			// worth of hold time is charged.
			proc += 2*c.WireNs + 2*c.NICOpNs + c.SecApplyNs
		}
	}
	finish := func() {
		v, after, gate := work()
		if gate != nil {
			gate(func() { respond(v, after) })
		} else {
			respond(v, after)
		}
	}
	switch h.cfg.Mode {
	case ModeSendRecv:
		sh.cpu.Acquire(proc+c.SendRecvServerNs, finish)
	case ModePipelineWrite:
		// Fig. 5(a): I/O threads detect + enqueue, workers process under a
		// shared-store mutex, then hand the response back.
		sh.dispatch.Acquire(c.PipeDispatchNs, func() {
			h.eng.After(c.PipeHandoffNs, func() {
				sh.workers.Acquire(c.PipeWorkerNs, func() {
					sh.lock.Acquire(proc+c.PipeLockNs, finish)
				})
			})
		})
	default:
		if sh.inst != nil {
			// Sub-sharding: the instance's connection thread detects the
			// request and hands it to the owning sub-shard core (§6.3).
			sh.inst.Acquire(c.SubShardDemuxNs, func() {
				sh.cpu.Acquire(proc, finish)
			})
			return
		}
		sh.cpu.Acquire(proc, finish)
	}
}

// applyOp executes the real store operation and replication side effects.
// It returns the response payload size, a client-side continuation that
// installs the returned remote pointer, and (for strict replication) a gate
// deferring the response until the secondaries ack.
func (h *HydraSim) applyOp(cl *simClient, sh *simShard, key string, op message.Op) (int, func(), func(func())) {
	switch op {
	case message.OpGet:
		res, ok := sh.store.Get([]byte(key))
		if !ok {
			return 0, nil, nil
		}
		valLen := len(res.Value)
		after := h.cacheInstaller(cl, sh, key, res)
		return valLen, after, nil

	default: // Put
		res, _, err := sh.store.Put([]byte(key), h.cfg.Workload.Value())
		if err != nil {
			h.putErrors++
			return 0, nil, nil
		}
		if p := sh.store.PendingReclaims(); p > h.maxPending {
			h.maxPending = p
		}
		// Both modes post the records here; in strict mode the ack round
		// trip is charged as shard hold time inside serve() — the single
		// shard thread blocks on every acknowledgement (§5.2), which is
		// exactly what Fig. 13's doubling comes from.
		h.replicate(sh)
		after := h.cacheInstaller(cl, sh, key, res)
		return 0, after, nil
	}
}

// cacheInstaller builds the client-side continuation caching the remote
// pointer returned with a response (§4.2.2).
func (h *HydraSim) cacheInstaller(cl *simClient, sh *simShard, key string, res kv.GetResult) func() {
	if h.cfg.Mode != ModeWriteRead {
		return nil
	}
	ptr := res.Ptr
	ptr.ShardID = sh.id
	leaseExp := res.LeaseExp
	return func() { cl.cache[key] = &ptrEntry{ptr: ptr, leaseExp: leaseExp} }
}

// replicate posts one log record to each secondary. In logging mode the
// posts are fire-and-forget one-sided writes that merely queue ahead of the
// response on the primary NIC (§5.2); in strict mode the response path is
// gated on every secondary's ack round trip.
func (h *HydraSim) replicate(sh *simShard) {
	if len(sh.secMachines) == 0 {
		return
	}
	recBytes := 8 + h.cfg.Workload.Spec.KeyLen + h.cfg.Workload.Spec.ValueLen
	h.replicated += int64(len(sh.secMachines))
	for i, sm := range sh.secMachines {
		i, sm := i, sm
		h.hop(sh.m, sm, recBytes, func() {
			sh.secApply[i].Acquire(h.cfg.Cost.SecApplyNs, func() {})
		})
	}
}
