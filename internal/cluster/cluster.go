// Package cluster assembles a live HydraDB deployment: machines (NICs on
// the simulated fabric), shards pinned to machines, star-formed replica
// groups, the coordination service, the SWAT failover team, and epoch-
// versioned routing for clients (paper §4 Fig. 4 and §5).
package cluster

import (
	"fmt"
	"slices"
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
	// MailboxBytes per mailbox slot.
	MailboxBytes int
	// RingDepth is the mailbox slot count per connection direction: the
	// bound on requests in flight per connection. Zero selects the shard
	// default.
	RingDepth int
	// VNodes for the consistent-hash ring.
	VNodes int
	// SendRecv makes ALL client connections use the two-sided baseline.
	SendRecv bool
	// Pipelined runs shards under the decoupled execution model (§6.2.1).
	Pipelined bool
}

const (
	// swatSize is the watcher-team size (paper: an independent group; the
	// ZooKeeper ensemble is 3–5 machines).
	swatSize = 3
	// sessionTimeoutNs bounds a coordination session's silence.
	sessionTimeoutNs = 2e9
)

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
	sec     *replication.Secondary
}

// group is one replica group: a primary plus its secondaries.
type group struct {
	id          uint32
	machine     int
	shard       *shard.Shard
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
		coord:     coord.NewServer(c.Store.Clock, sessionTimeoutNs),
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
	team, err := swat.NewTeam(cl.coord, swatSize, livePath, cl.react)
	if err != nil {
		return nil, err
	}
	cl.team = team
	return cl, nil
}

// startGroup creates a primary shard (and its secondaries) for partition id
// on the given machine and launches its loops.
func (cl *Cluster) startGroup(id uint32, machine int) error {
	g := cl.newGroup(id, machine, nil)
	replicas := make([]*secondaryReplica, cl.cfg.Replicas)
	for r := range replicas {
		replicas[r] = &secondaryReplica{
			machine: (machine + 1 + r) % cl.cfg.ServerMachines,
			store:   kv.NewStore(cl.cfg.Store),
		}
	}
	if err := cl.wireSecondaries(g, replicas); err != nil {
		return err
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
	launch(g)
	return nil
}

// newGroup builds partition id's primary shard on machine under the current
// epoch, with no secondaries yet. A non-nil store is adopted instead of a
// fresh one: a promoted replica's, or a migrating shard's own.
func (cl *Cluster) newGroup(id uint32, machine int, store *kv.Store) *group {
	sh := shard.New(shard.Config{
		ID:            id,
		NIC:           cl.serverNICs[machine],
		Store:         cl.cfg.Store,
		MailboxBytes:  cl.cfg.MailboxBytes,
		RingDepth:     cl.cfg.RingDepth,
		ExistingStore: store,
		Pipelined:     cl.cfg.Pipelined,
	})
	sh.SetEpoch(cl.epoch.Load())
	return &group{id: id, machine: machine, shard: sh}
}

// wireSecondaries attaches to g's shard a replication primary that feeds one
// secondary per given replica: on the replica's machine, over its store,
// through a fresh log (a log belongs to one primary's sequence space). Drain
// loops are not started. With no replicas, g stays unreplicated.
func (cl *Cluster) wireSecondaries(g *group, replicas []*secondaryReplica) error {
	if len(replicas) == 0 {
		return nil
	}
	logCfg := replication.LogConfig{Strict: cl.cfg.StrictReplication}
	primary := replication.NewPrimary(g.shard.NIC(), logCfg, cl.cfg.Replicas)
	for _, r := range replicas {
		secNIC := cl.serverNICs[r.machine]
		qpP, qpS := rdma.Connect(g.shard.NIC(), secNIC, 16)
		log := replication.NewLog(secNIC, logCfg)
		ackIdx, err := primary.AddSecondary(qpP, log)
		if err != nil {
			return err
		}
		sec := replication.NewSecondary(log, applyTo(r.store), qpS, primary.AckRegion(), ackIdx)
		g.secondaries = append(g.secondaries, &secondaryReplica{machine: r.machine, store: r.store, sec: sec})
	}
	g.shard.AttachPrimary(primary)
	return nil
}

// applyTo replays replicated records into a secondary's store.
func applyTo(store *kv.Store) replication.ApplierFunc {
	return func(seq uint64, r replication.Record) error {
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
	}
}

// startSecondaries launches the drain loop of every secondary of g.
func startSecondaries(g *group) {
	for _, sec := range g.secondaries {
		sec.sec.Start()
	}
}

// stopSecondaries joins every drain loop of g, then applies whatever its
// ring still holds. Every record the primary acknowledged is in secondary
// memory (the RDMA write completed before the client saw OK), so the drain
// loses no acked write.
func stopSecondaries(g *group) {
	for _, sec := range g.secondaries {
		sec.sec.Stop()
		for sec.sec.PollOnce() {
		}
	}
}

// launch starts g's loops: the secondaries' drain loops, then the primary.
func launch(g *group) {
	startSecondaries(g)
	g.shard.Start()
}

// install publishes g as its partition's group under a new routing epoch,
// which every primary enforces from then on.
func (cl *Cluster) install(g *group) {
	epoch := cl.epoch.Add(1)
	g.shard.SetEpoch(epoch)
	cl.mu.Lock()
	cl.groups[g.id] = g
	for _, og := range cl.groups {
		og.shard.SetEpoch(epoch)
	}
	cl.mu.Unlock()
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

	// Drain the rings completely, then pick the most caught-up secondary.
	stopSecondaries(g)
	best := 0
	for i, sec := range g.secondaries {
		if sec.sec.AppliedSeq() > g.secondaries[best].sec.AppliedSeq() {
			best = i
		}
	}
	chosen := g.secondaries[best]
	survivors := slices.Delete(slices.Clone(g.secondaries), best, best+1)

	// The new primary adopts the replica store on the secondary's machine and
	// re-establishes replication with the surviving secondaries.
	newGroup := cl.newGroup(id, chosen.machine, chosen.store)
	if err := cl.wireSecondaries(newGroup, survivors); err != nil {
		return err
	}
	// Start the drain loops before re-sync: the replay can exceed the log
	// window and needs live consumers.
	startSecondaries(newGroup)
	if primary := newGroup.shard.Primary(); primary != nil {
		// Re-sync: replay the promoted store into the new logs (idempotent
		// Puts).
		var syncErr error
		newGroup.shard.Store().Range(func(k, v []byte) bool {
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
			stopSecondaries(newGroup)
			return syncErr
		}
	}

	// Publish the new epoch, install the group, re-register liveness, and
	// only then start the primary.
	cl.install(newGroup)
	newGroup.session = cl.coord.NewSession()
	if _, err := newGroup.session.Create(fmt.Sprintf("%s/shard-%d", livePath, id), nil, coord.FlagEphemeral); err != nil {
		return err
	}
	newGroup.shard.Start()
	cl.Promotions.Add(1)
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
	g.shard.Stop()
	stopSecondaries(g)

	// Restart on the target machine, adopting the same store. Items keep
	// their offsets; only the NIC registration changes, so stale client
	// pointers hit the wrong (new connection's) arena region and fail the
	// key check — same recovery path as failover.
	newGroup := cl.newGroup(id, targetMachine, g.shard.Store())
	if err := cl.wireSecondaries(newGroup, g.secondaries); err != nil {
		return err
	}
	newGroup.session = g.session // liveness continuity: this is not a failure
	cl.install(newGroup)
	launch(newGroup)
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
		if !g.shard.Killed() {
			g.shard.Stop()
		}
		stopSecondaries(g)
		g.session.Close()
	}
}
