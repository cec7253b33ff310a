package replication

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"hydradb/internal/arena"
	"hydradb/internal/rdma"
	"hydradb/internal/stats"
	"hydradb/internal/timing"
)

// ErrFlushTimeout reports that a bounded flush gave up before every secondary
// acknowledged: some replica is dead or partitioned and its acks may never
// arrive. Records the flush could not confirm are not lost — the §5.2 nack
// protocol re-sends the missing suffix when the replica reappears — but the
// caller must not block on them, or a partition turns a graceful stop into a
// hang.
var ErrFlushTimeout = errors.New("replication: flush timed out waiting for secondary acks")

// LogConfig sizes a replication log ring.
type LogConfig struct {
	// Slots is the ring capacity in records.
	// Positive and < 1<<15 after withDefaults.
	Slots int
	// SlotSize is the byte capacity of one record (key+val+header).
	// Positive and < 1<<15 after withDefaults.
	SlotSize int
	// AckEvery solicits an acknowledgement every N records ("several tens
	// of requests", §5.2). Strict mode ignores it and waits on every record.
	AckEvery int
	// Strict selects the conventional request/acknowledge baseline: every
	// record is flagged and the primary waits for its ack before returning
	// (the comparison mode of Fig. 13).
	Strict bool
}

func (c *LogConfig) withDefaults() LogConfig {
	cfg := *c
	if cfg.Slots == 0 {
		cfg.Slots = 256
	}
	if cfg.SlotSize == 0 {
		cfg.SlotSize = 256
	}
	if cfg.AckEvery == 0 {
		cfg.AckEvery = 32
	}
	if cfg.AckEvery >= cfg.Slots {
		cfg.AckEvery = cfg.Slots / 2
	}
	if cfg.SlotSize >= 1<<15 {
		panic("replication: slot size exceeds ready-word size field (15 bits)")
	}
	if cfg.Slots >= 1<<15 {
		panic("replication: slot count exceeds nack discard field (15 bits)")
	}
	return cfg
}

// Applier consumes replicated records on the secondary.
type Applier interface {
	Apply(seq uint64, r Record) error
}

// ApplierFunc adapts a function to Applier.
type ApplierFunc func(seq uint64, r Record) error

// Apply implements Applier.
func (f ApplierFunc) Apply(seq uint64, r Record) error { return f(seq, r) }

// Log is the secondary-side ring: the memory chunk exposed to the primary.
// Word layout of the region: words [0, Slots) are per-slot ready words;
// word Slots is the doorbell the primary rings to solicit an ack out of
// band (used when its window fills and at Flush).
type Log struct {
	cfg LogConfig
	mr  *rdma.MemoryRegion
}

// NewLog allocates a ring on the given NIC.
func NewLog(nic *rdma.NIC, cfg LogConfig) *Log {
	c := cfg.withDefaults()
	data := make([]byte, c.Slots*c.SlotSize)
	words := arena.NewWordArea(c.Slots+1, 1)
	return &Log{cfg: c, mr: nic.Register(data, words)}
}

// Region exposes the ring's memory region for the primary to write into.
func (l *Log) Region() *rdma.MemoryRegion { return l.mr }

// Config reports the effective configuration.
func (l *Log) Config() LogConfig { return l.cfg }

// hydralint:offset-source
func (l *Log) doorbellIdx() int { return l.cfg.Slots }

// Secondary drains a Log and applies records. It is single-threaded: the
// live mode calls Start, which runs PollOnce in a dedicated goroutine (the
// paper's "dedicated thread polls replication requests"); tests and the
// simulator call PollOnce.
type Secondary struct {
	log     *Log
	applier Applier
	ackQP   *rdma.QP
	ackMR   *rdma.MemoryRegion
	ackIdx  int // assigned by Primary.AddSecondary

	nextSeq        uint64
	applied        atomic.Uint64
	failed         bool
	firstFailed    uint64
	awaitingResend bool   // nacked; record firstFailed not yet re-received
	nackCount      uint64 // discarded-slot count the pending nack reported
	lastDoorbell   uint64
	loop           *timing.Runner

	// FailureHook, when non-nil, is consulted before applying each record;
	// a non-nil error injects a processing failure (test/chaos hook).
	FailureHook func(seq uint64, r Record) error

	Applied  stats.Counter
	Discards stats.Counter
	Nacks    stats.Counter
	// EmptyPolls counts the rounds of the drain loop that found nothing to
	// do; each one yields or naps.
	EmptyPolls stats.Counter
}

// NewSecondary wires a drain loop to log, applying via applier and
// acknowledging through qp into the primary's ack word (ackIdx of ackMR).
func NewSecondary(log *Log, applier Applier, qp *rdma.QP, ackMR *rdma.MemoryRegion, ackIdx int) *Secondary {
	return &Secondary{
		log:     log,
		applier: applier,
		ackQP:   qp,
		ackMR:   ackMR,
		ackIdx:  ackIdx,
		nextSeq: 1,
		loop:    timing.NewRunner("replication.Secondary"),
	}
}

// AppliedSeq reports the highest contiguously applied sequence number. It is
// safe to read from other goroutines (monitoring, promotion).
func (s *Secondary) AppliedSeq() uint64 { return s.applied.Load() }

// Pending reports whether PollOnce would make progress: an unseen doorbell
// value, or the next expected record published in the ring. It is
// side-effect-free, so a caller stepping the drain loop by hand can ask it
// when polling is worthwhile.
func (s *Secondary) Pending() bool {
	words := s.log.mr.Words()
	if db := words.Load(s.log.doorbellIdx()); db != 0 && db != s.lastDoorbell {
		return true
	}
	seq, _, _ := splitReady(words.Load(s.slotOf(s.nextSeq)))
	return seq == s.nextSeq
}

// slotOf maps a sequence number to its ring slot.
//
// hydralint:offset-source the modulus keeps the slot in [0, Slots)
func (s *Secondary) slotOf(seq uint64) int { return int((seq - 1) % uint64(s.log.cfg.Slots)) }

// PollOnce processes at most one pending record or doorbell, returning
// whether progress was made.
func (s *Secondary) PollOnce() bool {
	words := s.log.mr.Words()

	// Doorbell: the primary solicits an acknowledgement out of band.
	if db := words.Load(s.log.doorbellIdx()); db != 0 && db != s.lastDoorbell {
		s.lastDoorbell = db
		switch {
		case s.failed:
			s.nack()
		case s.awaitingResend:
			// Our nack may still be unread or was superseded in the ack
			// word: repeat it verbatim. The discard count must be the one
			// recorded when the slots were zeroed — nack() has already reset
			// nextSeq to firstFailed, so recomputing it here would repeat the
			// nack with count 0 and the primary would re-send nothing. The
			// primary de-duplicates identical repeats.
			s.sendAckWord(makeNack(s.firstFailed, s.nackCount))
		default:
			s.sendAckWord(makeAck(s.applied.Load()))
		}
		return true
	}

	slot := s.slotOf(s.nextSeq)
	w := words.Load(slot)
	seq, size, ackReq := splitReady(w)
	if seq != s.nextSeq {
		return false
	}
	// A ready word whose size exceeds the slot would over-slice into the
	// neighbouring record; treat it like a torn write and wait for the
	// primary to republish the indicator.
	if size < 0 || size > s.log.cfg.SlotSize {
		return false
	}
	if s.awaitingResend && seq == s.firstFailed {
		s.awaitingResend = false
	}
	body := s.log.mr.Data()[slot*s.log.cfg.SlotSize : slot*s.log.cfg.SlotSize+size]

	if s.failed {
		// Discard mode: skip records, answering only ack requests with the
		// first failed sequence number (§5.2).
		s.Discards.Inc()
		s.nextSeq++
		if ackReq {
			s.nack()
		}
		return true
	}

	rec, err := DecodeRecord(body)
	if err == nil && s.FailureHook != nil {
		err = s.FailureHook(seq, rec)
	}
	if err == nil {
		err = s.applier.Apply(seq, rec)
	}
	if err != nil {
		s.failed = true
		s.firstFailed = seq
		s.nextSeq = seq + 1
		if ackReq {
			// The failing record itself carried the ack request.
			s.nack()
		}
		return true
	}
	s.applied.Store(seq)
	s.nextSeq = seq + 1
	s.Applied.Inc()
	if ackReq {
		s.sendAckWord(makeAck(seq))
	}
	return true
}

// nack frees the discarded buffer region and reports the first failed
// sequence plus the discarded count ("sends back the first failed requests
// and freed memory buffer since last acknowledgment", §5.2). Zeroing the
// ready words of every discarded slot *before* publishing the nack makes the
// primary's re-send unambiguous: this secondary reconsiders those slots only
// once a fresh RDMA Write republishes their indicators. Slots beyond the
// scan position keep their original records and are consumed as-is after the
// resent prefix.
func (s *Secondary) nack() {
	words := s.log.mr.Words()
	for seq := s.firstFailed; seq < s.nextSeq; seq++ {
		words.Store(s.slotOf(seq), 0)
	}
	s.Nacks.Inc()
	s.nackCount = s.nextSeq - s.firstFailed
	s.sendAckWord(makeNack(s.firstFailed, s.nackCount))
	s.nextSeq = s.firstFailed
	s.failed = false
	s.awaitingResend = true
}

func (s *Secondary) sendAckWord(w uint64) {
	// One-sided write of the ack word into the primary's region. Errors are
	// deliberately dropped: a dead primary's ack word is irrelevant and SWAT
	// handles the failover.
	//hydralint:ignore error-discipline a dead primary's ack word is irrelevant; SWAT handles the failover
	_ = s.ackQP.WriteWord(s.ackMR, s.ackIdx, w)
}

// idleShape is the drain loop's idle policy. Every strict put waits on its
// ack, so a strict secondary serves a request path and takes the shard
// loop's yield-first shape. In logging mode no put waits on the secondary
// except when the window fills or at Flush, so it naps as soon as its ring
// is empty and leaves the cores to the clients and primaries.
func (c LogConfig) idleShape() timing.IdleShape {
	if c.Strict {
		return timing.YieldFirst
	}
	return timing.NapFirst
}

// Start launches the drain loop for the live shard process: it polls while
// records or doorbells keep arriving and backs off when the ring is empty.
func (s *Secondary) Start() {
	s.loop.Go(s.log.cfg.idleShape(), func() bool {
		if s.PollOnce() {
			return true
		}
		s.EmptyPolls.Inc()
		return false
	}, nil)
}

// Stop ends the drain loop and waits for it to exit, so the caller may
// safely take over the drain (promotion calls PollOnce afterwards).
func (s *Secondary) Stop() { s.loop.Stop() }

// secondaryState is the primary-side view of one secondary.
type secondaryState struct {
	qp        *rdma.QP
	log       *Log
	ackIdx    int // index into the primary's ack word area
	lastAcked uint64
	doorbell  uint64 // last doorbell value rung

	// written is the highest sequence number written to this secondary with
	// no gap below it. A failed writeRecord (transient partition, chaos
	// injection) leaves written behind seq; Replicate, the ack-wait loops and
	// Flush re-send the missing range before anything newer, because the
	// secondary consumes strictly in sequence order and a permanent hole
	// would stall it forever.
	written uint64

	// rollback de-duplication: a doorbell may re-elicit an already handled
	// nack while the re-sent prefix is in flight.
	lastNackFrom  uint64
	lastNackCount uint64
}

// Primary replicates records to its secondaries. It is single-threaded,
// owned by the primary shard.
type Primary struct {
	cfg     LogConfig
	ackMR   *rdma.MemoryRegion // primary-owned: secondaries write acks here
	secs    []*secondaryState
	seq     uint64 // last assigned sequence number
	pending [][]byte

	Replications stats.Counter
	Rollbacks    stats.Counter
	AckWaits     stats.Counter
}

// NewPrimary creates a primary endpoint. nic is the primary's adaptor;
// maxSecondaries bounds AddSecondary calls.
func NewPrimary(nic *rdma.NIC, cfg LogConfig, maxSecondaries int) *Primary {
	c := cfg.withDefaults()
	if maxSecondaries <= 0 {
		maxSecondaries = 2
	}
	p := &Primary{
		cfg:     c,
		ackMR:   nic.Register(nil, arena.NewWordArea(maxSecondaries, 1)),
		pending: make([][]byte, c.Slots),
	}
	for i := range p.pending {
		p.pending[i] = make([]byte, 0, c.SlotSize)
	}
	return p
}

// AckRegion exposes the primary's ack region; pass it to NewSecondary
// together with the index returned by AddSecondary.
func (p *Primary) AckRegion() *rdma.MemoryRegion { return p.ackMR }

// AddSecondary registers a secondary reachable through qp whose log ring is
// log. It returns the ack word index the secondary must write to.
func (p *Primary) AddSecondary(qp *rdma.QP, log *Log) (ackIdx int, err error) {
	if len(p.secs) >= p.ackMR.Words().Len() {
		return 0, fmt.Errorf("replication: secondary limit %d reached", p.ackMR.Words().Len())
	}
	if log.cfg.Slots != p.cfg.Slots || log.cfg.SlotSize != p.cfg.SlotSize {
		return 0, fmt.Errorf("replication: log geometry mismatch")
	}
	ackIdx = len(p.secs)
	p.secs = append(p.secs, &secondaryState{qp: qp, log: log, ackIdx: ackIdx})
	return ackIdx, nil
}

// Secondaries reports the number of attached secondaries.
func (p *Primary) Secondaries() int { return len(p.secs) }

// Seq reports the last assigned sequence number.
func (p *Primary) Seq() uint64 { return p.seq }

// MinAcked reports the lowest acknowledged sequence across secondaries.
func (p *Primary) MinAcked() uint64 {
	if len(p.secs) == 0 {
		return p.seq
	}
	min := p.secs[0].lastAcked
	for _, s := range p.secs[1:] {
		if s.lastAcked < min {
			min = s.lastAcked
		}
	}
	return min
}

// Replicate ships one record to every secondary, honouring the configured
// acknowledgement mode. In logging mode it typically returns after a single
// one-sided RDMA Write per secondary; in strict mode it waits for every
// secondary's ack.
func (p *Primary) Replicate(r Record) error {
	if len(p.secs) == 0 {
		return nil
	}
	size := r.EncodedSize()
	if size > p.cfg.SlotSize {
		return ErrRecordTooLarge
	}
	// Window control: never overwrite a slot that any secondary has not
	// acknowledged. The doorbell asks for the acks at once.
	if p.seq-p.MinAcked() >= uint64(p.cfg.Slots) {
		p.AckWaits.Inc()
		free := p.seq + 1 - uint64(p.cfg.Slots)
		p.ringBehind(free)
		if err := p.waitAckedUntil(free, 0); err != nil {
			return err
		}
	}

	p.seq++
	seq := p.seq
	slot := int((seq - 1) % uint64(p.cfg.Slots))
	buf := p.pending[slot]
	if cap(buf) < size {
		buf = make([]byte, size)
	} else {
		buf = buf[:size]
	}
	r.EncodeTo(buf)
	p.pending[slot] = buf

	for _, s := range p.secs {
		if err := p.writeThrough(s, seq); err != nil {
			return err
		}
	}
	p.Replications.Inc()

	if p.cfg.Strict {
		return p.waitAcked(seq)
	}
	return nil
}

// ackReq reports whether record seq solicits an acknowledgement: every
// record in strict mode, every AckEvery-th in logging mode.
func (p *Primary) ackReq(seq uint64) bool {
	return p.cfg.Strict || seq%uint64(p.cfg.AckEvery) == 0
}

func (p *Primary) writeRecord(s *secondaryState, seq uint64, body []byte, ackReq bool) error {
	slot := int((seq - 1) % uint64(p.cfg.Slots))
	ready := makeReady(seq, len(body), ackReq)
	// One posted RDMA Write: body then ready word (in-order delivery).
	return s.qp.WriteIndicated(s.log.Region(), slot*p.cfg.SlotSize, body, slot, slot, ready)
}

// writeThrough writes every record in (s.written, seq] to one secondary in
// sequence order, filling any gap a previously failed write left before the
// newest record. Gap records are re-encoded from the pending ring, which
// still holds them: written never lags the window (written >= lastAcked >=
// seq-Slots), so their slots have not been reused. On failure written stays
// put and a later Replicate/Flush/ack-wait retries.
func (p *Primary) writeThrough(s *secondaryState, seq uint64) error {
	for w := s.written + 1; w <= seq; w++ {
		slot := int((w - 1) % uint64(p.cfg.Slots))
		if err := p.writeRecord(s, w, p.pending[slot], p.ackReq(w)); err != nil {
			return err
		}
		s.written = w
	}
	return nil
}

// catchUp retries the gap fill of every secondary lagging the last assigned
// sequence, ignoring errors (the link may still be down); used by the
// ack-wait loops so a healed partition drains without a new Replicate.
func (p *Primary) catchUp() {
	for _, s := range p.secs {
		if s.written < p.seq {
			//hydralint:ignore error-discipline recovery catch-up; the link may still be down and a later pass retries
			_ = p.writeThrough(s, p.seq)
		}
	}
}

// ring writes the out-of-band doorbell soliciting an ack from s.
func (p *Primary) ring(s *secondaryState) {
	s.doorbell++
	//hydralint:ignore error-discipline doorbell to a possibly-dead secondary; the ack timeout is the real failure signal
	_ = s.qp.WriteWord(s.log.Region(), s.log.doorbellIdx(), s.doorbell)
}

// waitAcked blocks until every secondary acknowledged seq. It has no
// deadline: the strict-mode request path deliberately inherits the
// conventional baseline's blocking semantics (Fig. 13's comparison mode).
// Stop paths must use waitAckedUntil via FlushTimeout instead.
func (p *Primary) waitAcked(seq uint64) error {
	return p.waitAckedUntil(seq, 0)
}

// waitAckedUntil blocks until every secondary acknowledged seq or the wall
// clock passes deadline (0 means no deadline). The deadline is checked on
// the same stride as the doorbell re-ring so the exit test stays off the
// per-spin fast path.
func (p *Primary) waitAckedUntil(seq uint64, deadline int64) error {
	for i := 0; ; i++ {
		p.pollAcks()
		done := true
		for _, s := range p.secs {
			if s.lastAcked < seq {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		if i%4096 == 4095 {
			if deadline > 0 && timing.Wall().Now() >= deadline {
				return ErrFlushTimeout
			}
			p.catchUp()
			if !p.cfg.Strict {
				p.ringBehind(seq)
			}
		}
		runtime.Gosched()
	}
}

func (p *Primary) ringBehind(seq uint64) {
	for _, s := range p.secs {
		if s.lastAcked < seq {
			p.ring(s)
		}
	}
}

// Flush solicits acknowledgements (via doorbells) and waits until every
// secondary caught up to the last assigned sequence — used before promoting
// a secondary. It waits forever; shutdown paths that must stay live under
// partitions use FlushTimeout.
func (p *Primary) Flush() error {
	if len(p.secs) == 0 || p.seq == 0 {
		return nil
	}
	p.catchUp()
	p.ringBehind(p.seq)
	return p.waitAcked(p.seq)
}

// FlushTimeout is Flush with a wall-clock budget: it returns ErrFlushTimeout
// if some secondary has not acknowledged the last assigned sequence within
// budgetNs. Graceful stop paths use it so a partitioned or dead replica
// cannot hang Shard.Stop — the goroutine-lifecycle contract is that Stop
// always returns, and unconfirmed records recover via the §5.2 resend
// protocol once the replica heals.
func (p *Primary) FlushTimeout(budgetNs int64) error {
	if len(p.secs) == 0 || p.seq == 0 {
		return nil
	}
	p.catchUp()
	p.ringBehind(p.seq)
	return p.waitAckedUntil(p.seq, timing.Wall().Now()+budgetNs)
}

// PollAcksOnce consumes pending acknowledgement words exactly once without
// blocking — the stepping hook for a caller that interleaves primary-side
// ack handling with secondary-side polling deterministically instead of
// entering the spin in waitAckedUntil (the benchmark's stage rig). The live
// path keeps using Replicate/Flush.
func (p *Primary) PollAcksOnce() { p.pollAcks() }

// SolicitAcks rings the out-of-band doorbell of every secondary lagging the
// last assigned sequence, without waiting for the answers (the waiting
// counterpart is Flush). A stepping hook, like PollAcksOnce.
func (p *Primary) SolicitAcks() {
	if p.seq == 0 {
		return
	}
	p.ringBehind(p.seq)
}

// pollAcks consumes every secondary's ack word with a CAS-clear (so a
// concurrent newer write is never lost), advancing ack state and handling
// nacks by re-sending exactly the discarded prefix (§5.2).
func (p *Primary) pollAcks() {
	for _, s := range p.secs {
		w := p.ackMR.Words().Load(s.ackIdx)
		if w == 0 {
			continue
		}
		// Clear only if unchanged; on a lost race the newer value is
		// processed on the next poll.
		p.ackMR.Words().CompareAndSwap(s.ackIdx, w, 0)
		seq, count, nack := splitAck(w)
		if nack {
			if seq == s.lastNackFrom && count == s.lastNackCount && s.lastAcked < seq {
				continue // duplicate of an in-flight rollback
			}
			s.lastNackFrom, s.lastNackCount = seq, count
			p.Rollbacks.Inc()
			p.resendRange(s, seq, count)
			continue
		}
		if seq > s.lastAcked {
			s.lastAcked = seq
		}
	}
}

// resendRange re-sends records [from, from+count) to one secondary — the
// exact range whose ready words the secondary zeroed — flagging the last so
// recovery converges even when no periodic flag falls inside the range.
func (p *Primary) resendRange(s *secondaryState, from, count uint64) {
	for seq := from; seq < from+count && seq <= p.seq; seq++ {
		slot := int((seq - 1) % uint64(p.cfg.Slots))
		body := p.pending[slot]
		//hydralint:ignore error-discipline recovery resend; a failed write resurfaces as a nack and re-enters this loop
		_ = p.writeRecord(s, seq, body, p.ackReq(seq) || seq == from+count-1)
	}
}
