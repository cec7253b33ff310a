// Package cluster assembles a live HydraDB deployment: machines (NICs on
// the simulated fabric), shards pinned to machines, star-formed replica
// groups, the coordination service, the SWAT failover team, and epoch-
// versioned routing for clients (paper §4 Fig. 4 and §5).
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hydradb/internal/client"
	"hydradb/internal/consistent"
	"hydradb/internal/coord"
	"hydradb/internal/kv"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/replication"
	"hydradb/internal/shard"
	"hydradb/internal/swat"
	"hydradb/internal/timing"
)

// Config sizes a cluster.
type Config struct {
	// ServerMachines hosts shards; ClientMachines hosts clients.
	ServerMachines int
	ClientMachines int
	// ShardsPerMachine primaries per server machine (paper default: 4).
	ShardsPerMachine int
	// Replicas is the number of secondary shards per primary (0 disables
	// HA); must be below ServerMachines so every copy has its own machine.
	Replicas int
	// StrictReplication selects the request/ack baseline instead of RDMA
	// Logging (Fig. 13 comparison).
	StrictReplication bool
	// Store sizes each shard's item store (Clock required).
	Store kv.Config
	// Fabric tunes the simulated verbs layer.
	Fabric rdma.Config
	// Log tunes replication rings.
	Log replication.LogConfig
	// MailboxBytes per mailbox slot.
	MailboxBytes int
	// RingDepth is the mailbox slot count per connection direction (pipeline
	// window ceiling). Zero selects the shard default.
	RingDepth int
	// VNodes for the consistent-hash ring.
	VNodes int
	// SWATSize is the watcher-team size (paper: an independent group; the
	// ZooKeeper ensemble is 3–5 machines).
	SWATSize int
	// SessionTimeoutNs for coordination sessions.
	SessionTimeoutNs int64
	// SendRecv makes ALL client connections use the two-sided baseline.
	SendRecv bool
	// Pipelined runs shards under the decoupled execution model (§6.2.1).
	Pipelined bool
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.ServerMachines == 0 {
		cfg.ServerMachines = 1
	}
	if cfg.ClientMachines == 0 {
		cfg.ClientMachines = 1
	}
	if cfg.ShardsPerMachine == 0 {
		cfg.ShardsPerMachine = 4
	}
	if cfg.MailboxBytes == 0 {
		cfg.MailboxBytes = 64 << 10
	}
	if cfg.SWATSize == 0 {
		cfg.SWATSize = 3
	}
	if cfg.SessionTimeoutNs == 0 {
		cfg.SessionTimeoutNs = 2e9
	}
	if cfg.Store.Clock == nil {
		panic("cluster: Config.Store.Clock required")
	}
	return cfg
}

// secondaryReplica is a secondary shard: a dedicated store fed from the
// primary's replication log, "without servicing other requests from any
// clients" (§5.1).
type secondaryReplica struct {
	machine int
	store   *kv.Store
	log     *replication.Log
	sec     *replication.Secondary
	running bool
}

// group is one replica group: a primary plus its secondaries.
type group struct {
	id          uint32
	machine     int
	shard       *shard.Shard
	pipe        *shard.Pipelined
	secondaries []*secondaryReplica
	session     *coord.Session
}

// Cluster is a running deployment.
type Cluster struct {
	cfg    Config
	clock  timing.Clock
	fabric *rdma.Fabric
	coord  *coord.Server
	team   *swat.Team

	serverNICs []*rdma.NIC
	clientNICs []*rdma.NIC

	mu        sync.Mutex
	groups    map[uint32]*group
	ring      *consistent.Ring
	epoch     atomic.Uint32
	promoting map[uint32]bool // partitions with a promotion in flight

	Promotions atomic.Int32
}

const livePath = "/hydra/live"

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	c := cfg.withDefaults()
	// startGroup places secondary r on machine (primary+1+r) mod
	// ServerMachines; with Replicas >= ServerMachines that wraps onto the
	// primary's own machine and one machine failure loses both copies.
	if c.Replicas > 0 && c.Replicas >= c.ServerMachines {
		return nil, fmt.Errorf("cluster: %d replicas need at least %d server machines, have %d",
			c.Replicas, c.Replicas+1, c.ServerMachines)
	}
	cl := &Cluster{
		cfg:       c,
		clock:     c.Store.Clock,
		fabric:    rdma.NewFabric(c.Fabric),
		coord:     coord.NewServer(c.Store.Clock, c.SessionTimeoutNs),
		groups:    map[uint32]*group{},
		promoting: map[uint32]bool{},
	}
	for i := 0; i < c.ServerMachines; i++ {
		cl.serverNICs = append(cl.serverNICs, cl.fabric.NewNIC(fmt.Sprintf("server-%d", i)))
	}
	for i := 0; i < c.ClientMachines; i++ {
		cl.clientNICs = append(cl.clientNICs, cl.fabric.NewNIC(fmt.Sprintf("client-%d", i)))
	}

	// Shards: IDs are stable partition identities.
	var shardIDs []uint32
	nextID := uint32(1)
	for m := 0; m < c.ServerMachines; m++ {
		for s := 0; s < c.ShardsPerMachine; s++ {
			id := nextID
			nextID++
			shardIDs = append(shardIDs, id)
			if err := cl.startGroup(id, m); err != nil {
				return nil, err
			}
		}
	}
	ring, err := consistent.Build(shardIDs, c.VNodes)
	if err != nil {
		return nil, err
	}
	cl.ring = ring

	// SWAT team watches shard liveness and reacts with promotion (§5.1).
	team, err := swat.NewTeam(cl.coord, c.SWATSize, livePath, cl.react)
	if err != nil {
		return nil, err
	}
	cl.team = team
	return cl, nil
}

// startGroup creates a primary shard (and its secondaries) for partition id
// on the given machine and launches its loops.
func (cl *Cluster) startGroup(id uint32, machine int) error {
	g := &group{id: id, machine: machine}
	sh := shard.New(shard.Config{
		ID:           id,
		NIC:          cl.serverNICs[machine],
		Store:        cl.cfg.Store,
		MailboxBytes: cl.cfg.MailboxBytes,
		RingDepth:    cl.cfg.RingDepth,
	})
	sh.SetEpoch(cl.epoch.Load())
	g.shard = sh

	if cl.cfg.Replicas > 0 {
		logCfg := cl.cfg.Log
		logCfg.Strict = cl.cfg.StrictReplication
		primary := replication.NewPrimary(sh.NIC(), logCfg, cl.cfg.Replicas)
		for r := 0; r < cl.cfg.Replicas; r++ {
			secMachine := (machine + 1 + r) % cl.cfg.ServerMachines
			if err := cl.addSecondary(g, primary, secMachine, logCfg); err != nil {
				return err
			}
		}
		sh.AttachPrimary(primary)
	}

	// Liveness registration: an ephemeral znode owned by the shard's own
	// session; its disappearance is the SWAT failure signal.
	g.session = cl.coord.NewSession()
	if err := g.session.EnsurePath(livePath); err != nil {
		return err
	}
	if _, err := g.session.Create(fmt.Sprintf("%s/shard-%d", livePath, id), nil, coord.FlagEphemeral); err != nil {
		return err
	}

	cl.mu.Lock()
	cl.groups[id] = g
	cl.mu.Unlock()

	if cl.cfg.Pipelined {
		g.pipe = shard.NewPipelined(sh, 2, 2)
		go g.pipe.Run()
	} else {
		go sh.Run()
	}
	for _, sec := range g.secondaries {
		sec.running = true
		go sec.sec.Run()
	}
	return nil
}

// addSecondary wires a fresh secondary replica on secMachine to primary.
func (cl *Cluster) addSecondary(g *group, primary *replication.Primary, secMachine int, logCfg replication.LogConfig) error {
	storeCfg := cl.cfg.Store
	store := kv.NewStore(storeCfg)
	secNIC := cl.serverNICs[secMachine]
	qpP, qpS := rdma.Connect(cl.serverNICs[g.machine], secNIC, 16)
	log := replication.NewLog(secNIC, logCfg)
	ackIdx, err := primary.AddSecondary(qpP, log)
	if err != nil {
		return err
	}
	applier := replication.ApplierFunc(func(seq uint64, r replication.Record) error {
		switch r.Op {
		case message.OpPut:
			_, _, err := store.Put(r.Key, r.Val)
			return err
		case message.OpDelete:
			store.Delete(r.Key)
			return nil
		default:
			return fmt.Errorf("cluster: unexpected replicated op %v", r.Op)
		}
	})
	sec := replication.NewSecondary(log, applier, qpS, primary.AckRegion(), ackIdx)
	g.secondaries = append(g.secondaries, &secondaryReplica{
		machine: secMachine,
		store:   store,
		log:     log,
		sec:     sec,
	})
	return nil
}

// react is the SWAT reactor: a shard's liveness node vanished.
func (cl *Cluster) react(name string) {
	var id uint32
	if _, err := fmt.Sscanf(name, "shard-%d", &id); err != nil {
		return
	}
	//hydralint:ignore error-discipline a group with no secondaries has nothing to promote; the next liveness event retries
	_ = cl.Promote(id)
}

// Promote selects the most caught-up secondary of group id, drains its log,
// and restarts the partition on the secondary's machine under a new routing
// epoch (§5.1). It returns an error when the group has no secondaries.
func (cl *Cluster) Promote(id uint32) error {
	cl.mu.Lock()
	g, ok := cl.groups[id]
	if !ok {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: unknown group %d", id)
	}
	if len(g.secondaries) == 0 {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: group %d has no secondaries", id)
	}
	// Promotion replaces a dead primary. With the primary alive this is
	// always a stale or duplicate reaction (the SWAT and a chaos controller
	// may both observe the same failure; the loser of the race arrives after
	// the winner already installed a live primary) — refuse it cleanly.
	if !g.shard.Killed() {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: primary of group %d is alive; refusing promotion", id)
	}
	// Guard against concurrent promotions of the same partition: the SWAT
	// reactor and a chaos controller may both observe the failure. The
	// second caller gets a clean error instead of a double promotion racing
	// over the same secondaries.
	if cl.promoting[id] {
		cl.mu.Unlock()
		return fmt.Errorf("cluster: promotion of group %d already in progress", id)
	}
	cl.promoting[id] = true
	cl.mu.Unlock()
	defer func() {
		cl.mu.Lock()
		delete(cl.promoting, id)
		cl.mu.Unlock()
	}()

	// Stop drain loops, then drain the rings completely: every record the
	// dead primary acknowledged is in secondary memory (the RDMA write
	// completed before the client saw OK), so no acked write can be lost.
	best := -1
	var bestSeq uint64
	for i, sec := range g.secondaries {
		if sec.running {
			sec.sec.Stop()
			sec.running = false
		}
		for sec.sec.PollOnce() {
		}
		if seq := sec.sec.AppliedSeq(); best == -1 || seq > bestSeq {
			best, bestSeq = i, seq
		}
	}
	chosen := g.secondaries[best]

	// New primary adopts the replica store on the secondary's machine.
	newShard := shard.New(shard.Config{
		ID:            id,
		NIC:           cl.serverNICs[chosen.machine],
		Store:         cl.cfg.Store,
		MailboxBytes:  cl.cfg.MailboxBytes,
		RingDepth:     cl.cfg.RingDepth,
		ExistingStore: chosen.store,
	})

	// Re-establish replication with the surviving secondaries: fresh logs,
	// then re-sync them from the promoted store (idempotent Puts).
	newGroup := &group{id: id, machine: chosen.machine, shard: newShard}
	logCfg := cl.cfg.Log
	logCfg.Strict = cl.cfg.StrictReplication
	if cl.cfg.Replicas > 0 && len(g.secondaries) > 1 {
		primary := replication.NewPrimary(newShard.NIC(), logCfg, cl.cfg.Replicas)
		for i, sec := range g.secondaries {
			if i == best {
				continue
			}
			if err := cl.reattachSecondary(newGroup, primary, sec, logCfg); err != nil {
				return err
			}
		}
		newShard.AttachPrimary(primary)
		// Start the drain loops before re-sync: the replay can exceed the
		// log window and needs live consumers.
		for _, sec := range newGroup.secondaries {
			sec.running = true
			go sec.sec.Run()
		}
		// Re-sync: replay the promoted store into the new logs.
		var syncErr error
		newShard.Store().Range(func(k, v []byte) bool {
			if err := primary.Replicate(replication.Record{Op: message.OpPut, Key: k, Val: v}); err != nil {
				syncErr = err
				return false
			}
			return true
		})
		if syncErr != nil {
			// The drain loops above are already running but the group was
			// never installed in cl.groups, so Stop would never reach them:
			// join them here or they leak.
			for _, sec := range newGroup.secondaries {
				sec.sec.Stop()
				sec.running = false
			}
			return syncErr
		}
	}

	// Publish the new epoch, install the group, re-register liveness.
	epoch := cl.epoch.Add(1)
	newShard.SetEpoch(epoch)
	cl.mu.Lock()
	cl.groups[id] = newGroup
	for _, og := range cl.groups {
		og.shard.SetEpoch(epoch)
	}
	cl.mu.Unlock()

	newGroup.session = cl.coord.NewSession()
	if _, err := newGroup.session.Create(fmt.Sprintf("%s/shard-%d", livePath, id), nil, coord.FlagEphemeral); err != nil {
		return err
	}
	go newShard.Run()
	cl.Promotions.Add(1)
	return nil
}

// reattachSecondary rewires a surviving secondary to a new primary with a
// fresh ring (the old ring belonged to the dead primary's sequence space).
func (cl *Cluster) reattachSecondary(g *group, primary *replication.Primary, old *secondaryReplica, logCfg replication.LogConfig) error {
	secNIC := cl.serverNICs[old.machine]
	qpP, qpS := rdma.Connect(cl.serverNICs[g.machine], secNIC, 16)
	log := replication.NewLog(secNIC, logCfg)
	ackIdx, err := primary.AddSecondary(qpP, log)
	if err != nil {
		return err
	}
	store := old.store
	applier := replication.ApplierFunc(func(seq uint64, r replication.Record) error {
		switch r.Op {
		case message.OpPut:
			_, _, err := store.Put(r.Key, r.Val)
			return err
		case message.OpDelete:
			store.Delete(r.Key)
			return nil
		default:
			return fmt.Errorf("cluster: unexpected replicated op %v", r.Op)
		}
	})
	sec := replication.NewSecondary(log, applier, qpS, primary.AckRegion(), ackIdx)
	g.secondaries = append(g.secondaries, &secondaryReplica{
		machine: old.machine,
		store:   store,
		log:     log,
		sec:     sec,
	})
	return nil
}

// MoveShard migrates a partition to another server machine — the SWAT's
// "notifying certain shards to migrate data to newly joined nodes" (§5.1).
// The primary is stopped gracefully (replication flushed), the partition
// restarts on the target machine under a new routing epoch, and clients'
// cached remote pointers into the old arena fail validation and fall back.
func (cl *Cluster) MoveShard(id uint32, targetMachine int) error {
	if targetMachine < 0 || targetMachine >= len(cl.serverNICs) {
		return fmt.Errorf("cluster: no server machine %d", targetMachine)
	}
	cl.mu.Lock()
	g, ok := cl.groups[id]
	cl.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown shard %d", id)
	}
	// Quiesce: stop serving (in-flight requests complete), flush the log.
	// The coordination session stays alive across a planned move — the
	// liveness znode never blinks, so the SWAT does not mistake the
	// migration for a failure.
	if g.pipe != nil {
		g.pipe.Stop()
	}
	g.shard.Stop()
	for _, sec := range g.secondaries {
		if sec.running {
			sec.sec.Stop()
			sec.running = false
		}
		for sec.sec.PollOnce() {
		}
	}

	// Restart on the target machine, adopting the same store. Items keep
	// their offsets; only the NIC registration changes, so stale client
	// pointers hit the wrong (new connection's) arena region and fail the
	// key check — same recovery path as failover.
	newGroup := &group{id: id, machine: targetMachine}
	newShard := shard.New(shard.Config{
		ID:            id,
		NIC:           cl.serverNICs[targetMachine],
		Store:         cl.cfg.Store,
		MailboxBytes:  cl.cfg.MailboxBytes,
		RingDepth:     cl.cfg.RingDepth,
		ExistingStore: g.shard.Store(),
	})
	newGroup.shard = newShard
	if cl.cfg.Replicas > 0 && len(g.secondaries) > 0 {
		logCfg := cl.cfg.Log
		logCfg.Strict = cl.cfg.StrictReplication
		primary := replication.NewPrimary(newShard.NIC(), logCfg, cl.cfg.Replicas)
		for _, sec := range g.secondaries {
			if err := cl.reattachSecondary(newGroup, primary, sec, logCfg); err != nil {
				return err
			}
		}
		newShard.AttachPrimary(primary)
		for _, sec := range newGroup.secondaries {
			sec.running = true
			go sec.sec.Run()
		}
	}

	newGroup.session = g.session // liveness continuity: this is not a failure

	epoch := cl.epoch.Add(1)
	newShard.SetEpoch(epoch)
	cl.mu.Lock()
	cl.groups[id] = newGroup
	for _, og := range cl.groups {
		og.shard.SetEpoch(epoch)
	}
	cl.mu.Unlock()
	go newShard.Run()
	return nil
}

// KillShard abruptly fails a primary (test/chaos): the loop dies and its
// coordination session closes, which is what the SWAT leader observes.
func (cl *Cluster) KillShard(id uint32) error {
	cl.mu.Lock()
	g, ok := cl.groups[id]
	cl.mu.Unlock()
	if !ok {
		return fmt.Errorf("cluster: unknown shard %d", id)
	}
	if g.pipe != nil {
		g.pipe.Stop()
	}
	g.shard.Kill()
	g.session.Close() // ephemeral vanishes -> SWAT reacts
	return nil
}

// Epoch reports the current routing epoch.
func (cl *Cluster) Epoch() uint32 { return cl.epoch.Load() }

// Ring exposes the consistent-hash ring.
func (cl *Cluster) Ring() *consistent.Ring { return cl.ring }

// ShardIDs lists partitions.
func (cl *Cluster) ShardIDs() []uint32 { return cl.ring.Shards() }

// Shard returns the current primary of a partition (test introspection).
func (cl *Cluster) Shard(id uint32) *shard.Shard {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if g, ok := cl.groups[id]; ok {
		return g.shard
	}
	return nil
}

// SecondaryStores exposes a partition's replica stores (test introspection).
func (cl *Cluster) SecondaryStores(id uint32) []*kv.Store {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	g, ok := cl.groups[id]
	if !ok {
		return nil
	}
	out := make([]*kv.Store, 0, len(g.secondaries))
	for _, s := range g.secondaries {
		out = append(out, s.store)
	}
	return out
}

// SecondaryAppliedTotal sums the applied-record counters across all
// secondaries — a race-free convergence signal for tests and monitoring.
func (cl *Cluster) SecondaryAppliedTotal() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var total int64
	for _, g := range cl.groups {
		for _, s := range g.secondaries {
			total += s.sec.Applied.Load()
		}
	}
	return total
}

// ClientNIC returns the adaptor of client machine i.
func (cl *Cluster) ClientNIC(i int) *rdma.NIC { return cl.clientNICs[i%len(cl.clientNICs)] }

// ServerNIC returns the adaptor of server machine i.
func (cl *Cluster) ServerNIC(i int) *rdma.NIC { return cl.serverNICs[i%len(cl.serverNICs)] }

// RouteTableFor builds a fresh routing snapshot with new connections from
// nic to every current primary.
func (cl *Cluster) RouteTableFor(nic *rdma.NIC) *client.RouteTable {
	cl.mu.Lock()
	groups := make([]*group, 0, len(cl.groups))
	for _, g := range cl.groups {
		groups = append(groups, g)
	}
	epoch := cl.epoch.Load()
	cl.mu.Unlock()

	eps := make(map[uint32]*shard.Endpoint, len(groups))
	for _, g := range groups {
		eps[g.id] = g.shard.Connect(nic, cl.cfg.SendRecv)
	}
	return &client.RouteTable{Epoch: epoch, Ring: cl.ring, Endpoints: eps}
}

// NewClient creates a client homed on client machine m.
func (cl *Cluster) NewClient(m int, opts client.Options) *client.Client {
	nic := cl.ClientNIC(m)
	if opts.Clock == nil {
		opts.Clock = cl.clock
	}
	if opts.Refresh == nil {
		opts.Refresh = func() *client.RouteTable { return cl.RouteTableFor(nic) }
	}
	return client.New(cl.RouteTableFor(nic), opts)
}

// SWAT exposes the watcher team (leader-failure tests).
func (cl *Cluster) SWAT() *swat.Team { return cl.team }

// Fabric exposes the simulated verbs fabric (fault injection, chaos).
func (cl *Cluster) Fabric() *rdma.Fabric { return cl.fabric }

// GroupMachines reports the server machines hosting partition id: the
// primary's machine first, then each secondary's. Chaos introspection.
func (cl *Cluster) GroupMachines(id uint32) (primary int, secondaries []int, err error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	g, ok := cl.groups[id]
	if !ok {
		return 0, nil, fmt.Errorf("cluster: unknown group %d", id)
	}
	for _, sec := range g.secondaries {
		secondaries = append(secondaries, sec.machine)
	}
	return g.machine, secondaries, nil
}

// Coord exposes the coordination service.
func (cl *Cluster) Coord() *coord.Server { return cl.coord }

// Stop shuts everything down.
func (cl *Cluster) Stop() {
	cl.team.Stop()
	cl.mu.Lock()
	groups := make([]*group, 0, len(cl.groups))
	for _, g := range cl.groups {
		groups = append(groups, g)
	}
	cl.mu.Unlock()
	for _, g := range groups {
		if g.pipe != nil {
			g.pipe.Stop()
		}
		if !g.shard.Killed() {
			g.shard.Stop()
		}
		for _, sec := range g.secondaries {
			if sec.running {
				sec.sec.Stop()
			}
		}
		g.session.Close()
	}
}
