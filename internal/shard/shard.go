// Package shard implements the live-mode HydraDB shard: a single-threaded
// process that exclusively manages one partition (paper §4.1.1).
//
// The shard thread continuously polls the request mailboxes of its client
// connections in round-robin order; upon detecting a message it processes
// the request against its kv.Store and RDMA-writes the response back before
// polling the next mailbox. There are no locks on the data path — the
// partition is owned exclusively — and after a quiet period the loop backs
// off with a short sleep so light workloads impose negligible CPU cost
// without sacrificing latency (§4.2.1).
//
// Config.Pipelined selects the decoupled variant instead (dispatcher
// threads + worker threads sharing the store under a mutex), used purely as
// the ablation baseline of §6.2.1/Fig. 5(a).
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hydradb/internal/arena"
	"hydradb/internal/invariant"
	"hydradb/internal/kv"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/replication"
	"hydradb/internal/stats"
	"hydradb/internal/timing"
)

// Config assembles a shard.
type Config struct {
	// ID is the global shard identity used in remote pointers and routing.
	ID uint32
	// NIC is the adaptor of the machine hosting this shard.
	NIC *rdma.NIC
	// Store sizes the item store (Clock required).
	Store kv.Config
	// MailboxBytes is the per-slot request/response buffer capacity.
	MailboxBytes int
	// RingDepth is the number of mailbox slots per connection direction — the
	// maximum requests a client may keep in flight on one connection, over
	// either transport. Depth 1 reproduces the paper's single-slot
	// alternation protocol exactly.
	RingDepth int
	// ReclaimEvery runs a reclamation pass after this many handled requests.
	ReclaimEvery int
	// ExistingStore, when non-nil, adopts an already-populated store instead
	// of creating one — the SWAT promotion path, where a secondary's replica
	// store becomes the new primary's (§5.1).
	ExistingStore *kv.Store
	// Pipelined runs the shard under the decoupled execution model of
	// Fig. 5(a) (pipelined.go) instead of the single-threaded loop.
	Pipelined bool
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.MailboxBytes == 0 {
		cfg.MailboxBytes = 64 << 10
	}
	if cfg.RingDepth == 0 {
		cfg.RingDepth = 16
	}
	if cfg.ReclaimEvery == 0 {
		cfg.ReclaimEvery = 256
	}
	return cfg
}

// Endpoint is what a client holds after connecting to a shard: the writer
// view of the request mailbox, the owner view of its response mailbox, and
// the queue pair for one-sided operations against the shard's arena.
type Endpoint struct {
	ShardID uint32
	// ReqBox delivers requests into the shard (write via QP).
	ReqBox *message.Mailbox
	// RespBox is polled by the client for responses.
	RespBox *message.Mailbox
	// QP is the client's end: request writes, and RDMA Reads of ArenaMR.
	QP *rdma.QP
	// ArenaMR is the shard's item region for RDMA-Read GETs.
	ArenaMR *rdma.MemoryRegion
	// SendRecv selects the two-sided baseline transport (§6.2 ablation):
	// requests go via QP.Send and responses arrive via QP.Recv. Callers use
	// Send, Poll, Release and Depth, which serve either transport.
	SendRecv bool
}

// Send delivers one encoded request carrying seq to the shard.
//
// hydralint:hotpath
func (ep *Endpoint) Send(body []byte, seq uint32) error {
	if ep.SendRecv {
		return ep.QP.Send(body)
	}
	return ep.ReqBox.WriteVia(ep.QP, body, seq)
}

// Poll returns the next delivered response and its seq without blocking.
// Responses arrive in the order the shard sent them. The body is valid until
// Release, which must come before the next Poll: in mailbox mode it aliases
// the response slot, in two-sided mode it is the received heap copy.
//
// hydralint:hotpath
func (ep *Endpoint) Poll() (body []byte, seq uint32, ok bool) {
	if ep.SendRecv {
		body, ok = ep.QP.TryRecv()
		return body, message.SeqOf(body), ok
	}
	return ep.RespBox.Poll()
}

// Release frees the response Poll last returned for the shard's next reply.
//
// hydralint:hotpath
func (ep *Endpoint) Release() {
	if !ep.SendRecv {
		ep.RespBox.Consume()
	}
}

// Depth is the most requests the client may keep in flight on this
// connection: the mailbox ring depth, whichever transport carries them.
func (ep *Endpoint) Depth() int { return ep.ReqBox.Depth() }

// conn is the shard's end of one client connection.
type conn struct {
	reqBox   *message.Mailbox
	respBox  *message.Mailbox
	qp       *rdma.QP // shard's end: response writes
	reqMR    *rdma.MemoryRegion
	sendRecv bool
}

// recv returns the next delivered request and its seq without blocking. The
// body is valid until release, which must come before the next recv.
//
// hydralint:hotpath
func (c *conn) recv() (body []byte, seq uint32, ok bool) {
	if c.sendRecv {
		body, ok = c.qp.TryRecv()
		return body, message.SeqOf(body), ok
	}
	return c.reqBox.Poll()
}

// release frees the request recv last returned: "the shard zeros out the
// request buffer" (§4.2.1), which hands the slot back to the client.
//
// hydralint:hotpath
func (c *conn) release() {
	if !c.sendRecv {
		c.reqBox.Consume()
	}
}

// reply delivers the response to the request that carried seq.
//
// hydralint:hotpath
func (c *conn) reply(body []byte, seq uint32) error {
	if c.sendRecv {
		return c.qp.Send(body)
	}
	return c.respBox.WriteVia(c.qp, body, seq)
}

// Shard is a live single-threaded shard.
type Shard struct {
	cfg     Config
	id      uint32
	nic     *rdma.NIC
	store   *kv.Store
	arenaMR *rdma.MemoryRegion
	clock   timing.Clock

	epoch   atomic.Uint32
	primary *replication.Primary // nil when replication is off

	// Control-plane only: guards connSet mutation in Connect. The hot path
	// reads the immutable snapshot through the conns atomic pointer.
	mu      sync.Mutex //hydralint:ignore shard-exclusivity control-plane connect path, never taken by the shard loop
	connSet []*conn
	conns   atomic.Pointer[[]*conn]

	// The loop goroutines, and the state only the loop touches.
	loop         *timing.Runner
	respBuf      []byte
	sinceReclaim int // requests handled since the last reclamation pass
	killed       atomic.Bool
	own          invariant.Owner // hydradebug: goroutine-ownership sanitizer

	Counters stats.OpCounters
	Handled  stats.Counter
}

// New creates a shard. The store is created from cfg.Store with the shard's
// counters attached.
func New(cfg Config) *Shard {
	c := cfg.withDefaults()
	if c.NIC == nil {
		panic("shard: NIC required")
	}
	s := &Shard{
		cfg:     c,
		id:      c.ID,
		nic:     c.NIC,
		clock:   c.Store.Clock,
		loop:    timing.NewRunner("shard"),
		respBuf: make([]byte, c.MailboxBytes),
	}
	if c.ExistingStore != nil {
		s.store = c.ExistingStore
	} else {
		storeCfg := c.Store
		storeCfg.Counters = &s.Counters
		s.store = kv.NewStore(storeCfg)
	}
	s.arenaMR = c.NIC.Register(s.store.ArenaData(), s.store.Words())
	empty := []*conn{}
	s.conns.Store(&empty)
	return s
}

// ID reports the shard identity.
func (s *Shard) ID() uint32 { return s.id }

// NIC reports the hosting adaptor.
func (s *Shard) NIC() *rdma.NIC { return s.nic }

// Store exposes the underlying item store (tests, promotion, migration).
func (s *Shard) Store() *kv.Store { return s.store }

// Epoch reports the routing epoch the shard currently accepts.
func (s *Shard) Epoch() uint32 { return s.epoch.Load() }

// SetEpoch advances the accepted routing epoch (SWAT reconfiguration).
func (s *Shard) SetEpoch(e uint32) { s.epoch.Store(e) }

// AttachPrimary enables replication through p. Must be set before Start.
func (s *Shard) AttachPrimary(p *replication.Primary) { s.primary = p }

// Pipelined reports whether the shard runs the decoupled execution model.
func (s *Shard) Pipelined() bool { return s.cfg.Pipelined }

// Primary reports the attached replication primary, if any.
func (s *Shard) Primary() *replication.Primary { return s.primary }

// Connect establishes a connection from a client living on clientNIC and
// returns the client's endpoint. sendRecv selects the two-sided baseline.
func (s *Shard) Connect(clientNIC *rdma.NIC, sendRecv bool) *Endpoint {
	depth := s.cfg.RingDepth
	qpDepth := 16
	if depth > qpDepth {
		qpDepth = depth
	}
	qpClient, qpShard := rdma.Connect(clientNIC, s.nic, qpDepth)

	reqMR := s.nic.Register(make([]byte, depth*s.cfg.MailboxBytes), arena.NewWordArea(depth, 2))
	respMR := clientNIC.Register(make([]byte, depth*s.cfg.MailboxBytes), arena.NewWordArea(depth, 2))
	reqBox := message.NewRing(reqMR, 0, s.cfg.MailboxBytes, depth, 0)
	respBox := message.NewRing(respMR, 0, s.cfg.MailboxBytes, depth, 0)

	c := &conn{reqBox: reqBox, respBox: respBox, qp: qpShard, reqMR: reqMR, sendRecv: sendRecv}
	s.mu.Lock() //hydralint:ignore shard-exclusivity control-plane connect path, never taken by the shard loop
	s.connSet = append(s.connSet, c)
	snapshot := append([]*conn(nil), s.connSet...)
	s.conns.Store(&snapshot)
	s.mu.Unlock() //hydralint:ignore shard-exclusivity control-plane connect path, never taken by the shard loop

	return &Endpoint{
		ShardID:  s.id,
		ReqBox:   reqBox,
		RespBox:  respBox,
		QP:       qpClient,
		ArenaMR:  s.arenaMR,
		SendRecv: sendRecv,
	}
}

// Start launches the shard's loop: the single-threaded event loop, which
// owns the store exclusively and calls PollOnce until Stop, backing off when
// a round finds nothing and running a reclamation pass on its naps — or,
// under Config.Pipelined, the decoupled stages.
func (s *Shard) Start() {
	if s.cfg.Pipelined {
		s.startPipelined()
		return
	}
	s.loop.Go(timing.YieldFirst, s.PollOnce, func() { s.store.ReclaimDue() })
}

// PollOnce is one round of the event loop: it drains every connection's
// ready requests and reports whether it handled any. The calling goroutine
// becomes the store's owner (§4.1.1 sanitizer).
func (s *Shard) PollOnce() bool {
	s.own.Acquire("shard.PollOnce")
	// One epoch load covers the whole poll round: SetEpoch is control-plane,
	// so every request drained this round may be judged against the same
	// value.
	epoch := s.epoch.Load()
	conns := *s.conns.Load()
	progress := false
	for _, c := range conns {
		if n := s.drainConn(c, epoch); n > 0 {
			progress = true
			s.sinceReclaim += n
			s.Handled.Add(int64(n))
		}
	}
	if s.sinceReclaim >= s.cfg.ReclaimEvery {
		s.store.ReclaimDue()
		s.sinceReclaim = 0
	}
	return progress
}

// drainConn consumes every ready request of one connection — up to a full
// ring per poll round — and reports how many it handled. Batching here is
// what turns the ring depth into throughput: one poll round retires a whole
// pipeline window, and the epoch check and reclamation accounting are
// amortized across the batch.
//
// hydralint:hotpath
func (s *Shard) drainConn(c *conn, epoch uint32) int {
	handled := 0
	for handled < c.reqBox.Depth() {
		body, seq, ok := c.recv()
		if !ok {
			break
		}
		n := s.handle(body, s.respBuf, epoch)
		// "the shard zeros out the request buffer and sends the response
		// back" (§4.2.1). Releasing before the reply frees the slot for the
		// client's next pipelined request.
		c.release()
		//hydralint:ignore error-discipline response to a vanished client; nothing to do but serve the next mailbox
		_ = c.reply(s.respBuf[:n], seq)
		handled++
	}
	return handled
}

// handle processes one request body against the given routing epoch, encodes
// the response into respBuf, and returns its length.
//
// hydralint:hotpath
func (s *Shard) handle(body []byte, respBuf []byte, epoch uint32) int {
	s.own.Assert("shard.handle")
	req, err := message.DecodeRequest(body)
	resp := message.Response{Epoch: epoch}
	if err != nil {
		resp.Status = message.StatusError
	} else {
		resp.Seq = req.Seq
		if req.Epoch != epoch {
			resp.Status = message.StatusWrongShard
		} else {
			s.apply(req, &resp)
		}
	}
	return resp.EncodeTo(respBuf)
}

// apply executes a request against the store, filling resp.
func (s *Shard) apply(req message.Request, resp *message.Response) {
	switch req.Op {
	case message.OpGet:
		res, ok := s.store.Get(req.Key)
		if !ok {
			resp.Status = message.StatusNotFound
			return
		}
		resp.Status = message.StatusOK
		resp.Val = res.Value
		resp.LeaseExp = res.LeaseExp
		resp.Ptr = res.Ptr
		resp.Ptr.ShardID = s.id

	case message.OpPut:
		// Replicate before applying locally: a value only becomes visible to
		// readers once it is in the backup stream, so a primary crash right
		// after a Get can never lose data that Get observed.
		if s.primary != nil {
			if err := s.primary.Replicate(replication.Record{
				Op: message.OpPut, Key: req.Key, Val: req.Val,
			}); err != nil {
				resp.Status = message.StatusError
				return
			}
			s.Counters.Replications.Inc()
		}
		res, existed, err := s.store.Put(req.Key, req.Val)
		if err != nil {
			resp.Status = message.StatusError
			return
		}
		resp.Status = message.StatusOK
		resp.Existed = existed
		resp.LeaseExp = res.LeaseExp
		resp.Ptr = res.Ptr
		resp.Ptr.ShardID = s.id

	case message.OpDelete:
		if s.primary != nil {
			if err := s.primary.Replicate(replication.Record{
				Op: message.OpDelete, Key: req.Key,
			}); err != nil {
				resp.Status = message.StatusError
				return
			}
			s.Counters.Replications.Inc()
		}
		existed := s.store.Delete(req.Key)
		if existed {
			resp.Status = message.StatusOK
		} else {
			resp.Status = message.StatusNotFound
		}

	case message.OpRenewLease:
		res, ok := s.store.RenewLease(req.Key)
		if !ok {
			resp.Status = message.StatusNotFound
			return
		}
		resp.Status = message.StatusOK
		resp.LeaseExp = res.LeaseExp
		resp.Ptr = res.Ptr
		resp.Ptr.ShardID = s.id

	default:
		resp.Status = message.StatusError
	}
}

// Stop terminates the loop gracefully (flushing replication).
func (s *Shard) Stop() {
	s.halt()
	if s.primary != nil {
		// Bounded: a partitioned or dead secondary must not hang Stop (the
		// chaos stop-drain scenario stops shards while the mesh is cut).
		//hydralint:ignore error-discipline graceful-stop flush; secondaries that miss it recover via the §5.2 resend protocol
		_ = s.primary.FlushTimeout(stopFlushBudgetNs)
	}
}

// stopFlushBudgetNs bounds the replication flush in Stop: long enough for a
// healthy replica set to drain its ring, short enough that stopping a shard
// whose secondary is partitioned completes promptly.
const stopFlushBudgetNs = int64(2 * time.Second)

// Kill terminates the loop abruptly without flushing — the §5 failure
// injection: acknowledged data must still survive on secondaries because
// logging-mode replication placed it there before acking the client.
func (s *Shard) Kill() {
	s.killed.Store(true)
	s.halt()
	// A dead process takes its memory registrations with it: one-sided reads
	// of the frozen arena must fail at the fabric, not return pre-crash
	// bytes. Without this, a client whose cached pointer targets the dead
	// primary would keep validating stale items forever — the guardian stays
	// GuardianLive in memory nobody will ever write again.
	s.arenaMR.Revoke()
	s.mu.Lock() //hydralint:ignore shard-exclusivity loop is dead; control-plane teardown
	for _, c := range s.connSet {
		c.reqMR.Revoke()
	}
	s.mu.Unlock() //hydralint:ignore shard-exclusivity loop is dead; control-plane teardown
}

// halt is the one path by which Stop and Kill end the loop, in either
// execution model: the runner closes its stop channel and joins every loop
// goroutine, and the store has no owner afterwards.
func (s *Shard) halt() {
	s.loop.Stop()
	s.own.Release()
}

// Killed reports whether the shard was failure-injected.
func (s *Shard) Killed() bool { return s.killed.Load() }

// String identifies the shard.
func (s *Shard) String() string { return fmt.Sprintf("shard-%d@%s", s.id, s.nic.Name()) }
