package simcluster

import (
	"fmt"

	"hydradb/internal/hashx"
	"hydradb/internal/sim"
	"hydradb/internal/stats"
	"hydradb/internal/ycsb"
)

// BaselineKind selects a comparison system (Fig. 9).
type BaselineKind int

// Baselines.
const (
	KindMemcached BaselineKind = iota
	KindRedis
	KindRAMCloud
)

// String names the baseline with the paper's version tags.
func (k BaselineKind) String() string {
	switch k {
	case KindMemcached:
		return "Memcached(IPoIB)"
	case KindRedis:
		return "Redis(IPoIB)"
	case KindRAMCloud:
		return "RAMCloud(IB)"
	default:
		return fmt.Sprintf("Baseline(%d)", int(k))
	}
}

// BaselineConfig describes one baseline run on a single server machine
// (matching the paper's single-server comparison).
type BaselineConfig struct {
	Kind           BaselineKind
	Clients        int
	ClientMachines int
	Workload       *ycsb.Workload
	Cost           CostModel
	Seed           int64
}

// BaselineSim runs a baseline system under the same testbed model. Only the
// architecture is modelled: each request holds the resources the system's
// design puts on its path for the cost model's time, and no store is kept,
// since no result depends on a stored value.
type BaselineSim struct {
	cfg     BaselineConfig
	eng     *sim.Engine
	server  *machine
	clients []*client

	// architecture resources
	workers   *sim.Resource   // memcached worker pool / ramcloud workers
	dispatch  *sim.Resource   // ramcloud dispatch thread
	instances []*sim.Resource // redis event loops, sharded client-side by key hash

	nextOp    int
	completed int64
	getHist   *stats.Histogram
	updHist   *stats.Histogram
}

// NewBaselineSim builds a baseline deployment.
func NewBaselineSim(cfg BaselineConfig) (*BaselineSim, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("simcluster: workload required")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 50
	}
	if cfg.ClientMachines <= 0 {
		cfg.ClientMachines = 5
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	b := &BaselineSim{
		cfg:     cfg,
		eng:     sim.NewEngine(cfg.Seed),
		getHist: stats.NewHistogram(),
		updHist: stats.NewHistogram(),
	}
	b.server = &machine{id: 0, nic: sim.NewResource(b.eng, "server-nic", 1)}
	clientMachines := make([]*machine, cfg.ClientMachines)
	for i := range clientMachines {
		clientMachines[i] = &machine{id: i + 1, nic: sim.NewResource(b.eng, fmt.Sprintf("cli-nic-%d", i), 1)}
	}
	for i := 0; i < cfg.Clients; i++ {
		b.clients = append(b.clients, &client{id: i, m: clientMachines[i%len(clientMachines)]})
	}

	c := &cfg.Cost
	switch cfg.Kind {
	case KindMemcached:
		b.workers = sim.NewResource(b.eng, "mc-workers", c.MCWorkers)
	case KindRedis:
		for i := 0; i < c.RedisShards; i++ {
			b.instances = append(b.instances, sim.NewResource(b.eng, fmt.Sprintf("redis-%d", i), 1))
		}
	case KindRAMCloud:
		b.dispatch = sim.NewResource(b.eng, "rc-dispatch", 1)
		b.workers = sim.NewResource(b.eng, "rc-workers", c.RCWorkers)
	}
	return b, nil
}

// tcpHop models an IPoIB message: NIC service both ends with the stack's
// copies, wire, plus the kernel/protocol latency that dominates the TCP
// baselines.
func (b *BaselineSim) tcpHop(a, to *machine, bytes int, cont func()) {
	c := &b.cfg.Cost
	hop(b.eng, c, a, to, bytes, c.TCPByteNs, c.TCPExtraNs, cont)
}

// verbsHop is the native InfiniBand Send/Recv transport (RAMCloud).
func (b *BaselineSim) verbsHop(a, to *machine, bytes int, cont func()) {
	hop(b.eng, &b.cfg.Cost, a, to, bytes, b.cfg.Cost.NICByteNs, 0, cont)
}

// Run executes the workload and reports the result.
func (b *BaselineSim) Run(label string) Result {
	for _, cl := range b.clients {
		cl := cl
		b.eng.After(int64(cl.id), func() { b.step(cl) })
	}
	b.eng.Run()
	r := finalize(label, b.completed, b.eng.Now(), b.getHist, b.updHist)
	r.NICUtil = b.server.nic.Utilization()
	switch b.cfg.Kind {
	case KindMemcached, KindRAMCloud:
		r.MaxShardUtil = b.workers.Utilization()
	case KindRedis:
		for _, inst := range b.instances {
			if u := inst.Utilization(); u > r.MaxShardUtil {
				r.MaxShardUtil = u
			}
		}
	}
	return r
}

func (b *BaselineSim) step(cl *client) {
	if b.nextOp >= len(b.cfg.Workload.Requests) {
		return
	}
	req := b.cfg.Workload.Requests[b.nextOp]
	b.nextOp++
	key := string(b.cfg.Workload.KeyInto(cl.keyBuf[:], req.KeyIdx))
	start := b.eng.Now()
	isGet := req.Op == ycsb.OpRead
	b.dispatchOp(cl, key, isGet, start)
}

func (b *BaselineSim) dispatchOp(cl *client, key string, isGet bool, start int64) {
	c := &b.cfg.Cost
	wl := b.cfg.Workload
	reqBytes := 40 + len(key)
	if !isGet {
		reqBytes += wl.Spec.ValueLen
	}
	respBytes := 40
	if isGet {
		respBytes += wl.Spec.ValueLen
	}
	finish := func() {
		if isGet {
			b.getHist.Record(b.eng.Now() - start)
		} else {
			b.updHist.Record(b.eng.Now() - start)
		}
		b.completed++
		b.eng.After(c.ClientThinkNs, func() { b.step(cl) })
	}
	switch b.cfg.Kind {
	case KindMemcached:
		b.tcpHop(cl.m, b.server, reqBytes, func() {
			b.workers.Acquire(c.KernelNs+c.MCWorkerNs, func() {
				b.tcpHop(b.server, cl.m, respBytes, finish)
			})
		})
	case KindRedis:
		inst := hashx.HashString(key) % uint64(len(b.instances))
		b.tcpHop(cl.m, b.server, reqBytes, func() {
			b.instances[inst].Acquire(c.KernelNs+c.RedisProcNs, func() {
				b.tcpHop(b.server, cl.m, respBytes, finish)
			})
		})
	case KindRAMCloud:
		b.verbsHop(cl.m, b.server, reqBytes, func() {
			b.dispatch.Acquire(c.RCDispatchNs, func() {
				b.workers.Acquire(c.RCWorkerNs, func() {
					b.verbsHop(b.server, cl.m, respBytes, func() {
						b.eng.After(c.SendRecvClientNs, finish)
					})
				})
			})
		})
	}
}
