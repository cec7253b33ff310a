// Package rdma simulates the RDMA verbs substrate hydradb runs on in live
// mode: NICs, registered memory regions, and reliably connected queue pairs
// offering one-sided Write/Read and two-sided Send/Recv.
//
// The simulation preserves the four properties HydraDB's protocols depend on
// (paper §4.2):
//
//  1. One-sided operations move data without involving the target CPU: a
//     Write/Read is a direct memory copy performed by the initiator into or
//     out of the target's registered region; no goroutine on the target runs.
//  2. Writes within a QP are delivered in order, and an indicator word
//     published *after* the payload (atomic release store) guarantees the
//     payload is visible to a poller that observed the indicator (atomic
//     acquire load) — the property the indicator-encapsulated message format
//     relies on, made race-free under the Go memory model.
//  3. Two-sided Send/Recv involves the receiver's CPU: messages traverse a
//     channel, paying scheduler wakeup just as interrupt-driven reception
//     pays kernel wakeup.
//  4. NICs are a finite resource: an optional ops/sec ceiling and a
//     per-QP-count overhead reproduce the device saturation and
//     connection-scalability effects of §6.3. Verb accounting is per QP
//     end and summed per NIC on read, and a verb writes no word shared
//     with other QPs unless that NIC cost model is armed, so, as on a real
//     HCA, accounting adds no cross-core traffic to a verb.
//
// Latency injection is optional (zero by default: unit tests run at memory
// speed); the discrete-event simulator models time separately and does not
// use this package's injection.
package rdma

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hydradb/internal/arena"
	"hydradb/internal/invariant"
	"hydradb/internal/timing"
)

// Errors returned by fabric operations.
var (
	ErrClosed       = errors.New("rdma: queue pair closed")
	ErrNotConnected = errors.New("rdma: memory region not reachable through this queue pair")
	ErrOutOfBounds  = errors.New("rdma: access outside registered region")
	ErrRevoked      = errors.New("rdma: memory registration revoked")
)

// Config tunes the fabric. The zero value is a valid infinitely fast fabric.
type Config struct {
	// WriteNs / ReadNs / SendNs inject busy-wait latency per one-sided
	// write, one-sided read round trip, and two-sided send.
	WriteNs, ReadNs, SendNs int64
	// NICOpNs is the minimum NIC service time per operation; with N
	// concurrent initiators a NIC admits at most 1e9/NICOpNs ops/sec.
	NICOpNs int64
	// QPThreshold and QPExtraNs model driver connection-scalability: each
	// op pays (qps-QPThreshold)*QPExtraNs extra NIC service when the NIC
	// carries more than QPThreshold queue pairs (§6.3).
	QPThreshold int32
	QPExtraNs   int64
	// Clock is the time base for latency injection and NIC admission; nil
	// selects the shared real clock, timing.Wall(). With the zero latency
	// Config the clock is never consulted, so unit-test fabrics stay fully
	// deterministic regardless of this field.
	Clock timing.Clock
}

// Fabric is a collection of NICs that can be wired together.
type Fabric struct {
	cfg   Config
	clock timing.Clock
	mu    sync.Mutex
	nics  []*NIC

	faultState // chaos hook (see faults.go); zero value = no injection
}

// NewFabric creates a fabric.
func NewFabric(cfg Config) *Fabric {
	clock := cfg.Clock
	if clock == nil {
		clock = timing.Wall()
	}
	return &Fabric{cfg: cfg, clock: clock}
}

// nicArmed reports whether the NIC cost model charges service time, so that
// verbs must run admission against the adaptors' shared busy horizons.
func (c *Config) nicArmed() bool { return c.NICOpNs > 0 || c.QPExtraNs > 0 }

// NIC models one RDMA adaptor. All queue pairs and memory regions of a node
// hang off its NIC; collocated processes share it (and its ceilings).
type NIC struct {
	fabric *Fabric
	name   string
	id     int

	qps      atomic.Int32
	nextFree atomic.Int64 // virtual NIC-busy horizon for the ops/sec ceiling

	mu   sync.Mutex
	ends []*QP // both ends of every connection made here; kept after Close so totals survive it

	// Ops and Bytes count the verbs and payload bytes crossing this NIC,
	// whichever end initiated them.
	Ops, Bytes VerbTotal
}

// VerbTotal is a NIC-wide verb statistic: one per-QP-end counter summed over
// every QP end attached to the NIC. Verbs never touch it; only Load does.
type VerbTotal struct {
	nic   *NIC
	bytes bool // sum the ends' byte counters instead of their op counters
}

// Load returns the current total.
func (t *VerbTotal) Load() int64 {
	n := t.nic
	n.mu.Lock()
	defer n.mu.Unlock()
	var sum int64
	for _, qp := range n.ends {
		if t.bytes {
			sum += qp.bytes.Load()
		} else {
			sum += qp.ops.Load()
		}
	}
	return sum
}

// NewNIC adds an adaptor to the fabric.
func (f *Fabric) NewNIC(name string) *NIC {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := &NIC{fabric: f, name: name, id: len(f.nics)}
	n.Ops = VerbTotal{nic: n}
	n.Bytes = VerbTotal{nic: n, bytes: true}
	f.nics = append(f.nics, n)
	return n
}

// attach records both ends of a new connection and counts it as a live QP.
func (n *NIC) attach(qa, qb *QP) {
	n.mu.Lock()
	n.ends = append(n.ends, qa, qb)
	n.mu.Unlock()
	n.qps.Add(1)
}

// Name reports the NIC name.
func (n *NIC) Name() string { return n.name }

// QPCount reports the live queue pairs on this NIC.
func (n *NIC) QPCount() int32 { return n.qps.Load() }

// serviceNs is the per-op NIC time including connection-count overhead.
func (n *NIC) serviceNs() int64 {
	cfg := &n.fabric.cfg
	s := cfg.NICOpNs
	if cfg.QPExtraNs > 0 {
		if extra := n.qps.Load() - cfg.QPThreshold; extra > 0 {
			s += int64(extra) * cfg.QPExtraNs
		}
	}
	return s
}

// admit passes one op through the NIC's cost model, blocking (with
// cooperative yielding) when the ops/sec ceiling is exceeded.
func (n *NIC) admit() {
	cost := n.serviceNs()
	if cost <= 0 {
		return
	}
	now := n.fabric.clock.Now()
	for {
		nf := n.nextFree.Load()
		start := nf
		if now > start {
			start = now
		}
		if n.nextFree.CompareAndSwap(nf, start+cost) {
			n.fabric.spinUntil(start + cost)
			return
		}
	}
}

// spinUntil busy-waits (cooperatively) until the fabric clock reaches the
// deadline. With a real clock this injects latency; a stalled ManualClock
// must therefore never be combined with nonzero latency configuration.
func (f *Fabric) spinUntil(deadline int64) {
	for f.clock.Now() < deadline {
		runtime.Gosched()
	}
}

func (f *Fabric) spinFor(ns int64) {
	if ns <= 0 {
		return
	}
	f.spinUntil(f.clock.Now() + ns)
}

// MemoryRegion is memory registered with a NIC: a byte area plus the aligned
// word area carrying indicators, guardians and leases (see package arena).
type MemoryRegion struct {
	nic     *NIC
	data    []byte // hydralint:region remotely writable registered bytes
	words   *arena.WordArea
	revoked atomic.Bool
}

// Revoke withdraws the registration: every subsequent one-sided access
// through any queue pair fails with ErrRevoked. This is what a remote peer
// observes when the owning process dies — the mapping is gone and the HCA
// answers with a protection fault, not with frozen bytes. Revoking a region
// does not affect later registrations of the same underlying memory.
func (mr *MemoryRegion) Revoke() { mr.revoked.Store(true) }

// Revoked reports whether the registration was withdrawn.
func (mr *MemoryRegion) Revoked() bool { return mr.revoked.Load() }

// Register registers data and words with the NIC. Either may be nil when a
// region only needs one area.
func (n *NIC) Register(data []byte, words *arena.WordArea) *MemoryRegion {
	return &MemoryRegion{nic: n, data: data, words: words}
}

// Data exposes the byte area to its owner (local access only).
//
// hydralint:region-view
func (mr *MemoryRegion) Data() []byte { return mr.data }

// Words exposes the word area to its owner.
func (mr *MemoryRegion) Words() *arena.WordArea { return mr.words }

// NIC reports the owning adaptor.
func (mr *MemoryRegion) NIC() *NIC { return mr.nic }

// QP is one end of a reliably connected queue pair.
//
// The first cache line holds the end's verb counters and nothing else: every
// verb initiated here writes them, so a field that verbs read from another
// core (the connection's closed flag above all) must not share their line.
// QP fills whole lines, so ends allocated side by side keep it private.
type QP struct {
	// Written by every verb this end initiates.
	ops, bytes atomic.Int64
	_          [6]uint64 // pad: the counters get a private line

	// Set by Connect and read by every verb.
	local, remote *NIC
	fabric        *Fabric
	closed        *atomic.Bool // the connection's flag, shared by both ends
	sendCh        chan []byte  // toward peer
	recvCh        chan []byte  // from peer
	armed         bool         // either NIC's cost model is armed (Config.nicArmed)
	reorder       reorderBuf   // chaos: held-back send (see faults.go)
	_             [5]uint64    // pad: QP fills whole lines
}

// link is one connection: its two ends and the closed flag they share, in
// one allocation of whole cache lines so each end's counter line is private.
type link struct {
	ends   [2]QP
	closed atomic.Bool
	_      [60]byte // pad: the flag gets a line of its own
}

// Connect wires two NICs together and returns the two QP ends.
func Connect(a, b *NIC, depth int) (*QP, *QP) {
	if depth <= 0 {
		depth = 16
	}
	ab := make(chan []byte, depth)
	ba := make(chan []byte, depth)
	armed := a.fabric.cfg.nicArmed() || b.fabric.cfg.nicArmed()
	l := &link{}
	l.ends[0] = QP{local: a, remote: b, fabric: a.fabric, closed: &l.closed, sendCh: ab, recvCh: ba, armed: armed}
	l.ends[1] = QP{local: b, remote: a, fabric: b.fabric, closed: &l.closed, sendCh: ba, recvCh: ab, armed: armed}
	qa, qb := &l.ends[0], &l.ends[1]
	a.attach(qa, qb)
	b.attach(qa, qb)
	return qa, qb
}

// Close tears the connection down, whichever end it is called on; closing
// either end again is a no-op.
func (qp *QP) Close() {
	if qp.closed.CompareAndSwap(false, true) {
		qp.local.qps.Add(-1)
		qp.remote.qps.Add(-1)
	}
}

// Closed reports whether either end is closed.
func (qp *QP) Closed() bool { return qp.closed.Load() }

// LocalNIC and RemoteNIC expose endpoints.
func (qp *QP) LocalNIC() *NIC { return qp.local }

// RemoteNIC reports the peer's adaptor.
func (qp *QP) RemoteNIC() *NIC { return qp.remote }

// Depth reports the queue depth the pair was connected with — the number of
// sends that may be outstanding before Send blocks.
func (qp *QP) Depth() int { return cap(qp.sendCh) }

func (qp *QP) checkTarget(mr *MemoryRegion) error {
	if qp.Closed() {
		return ErrClosed
	}
	if mr.nic != qp.remote {
		return ErrNotConnected
	}
	if mr.revoked.Load() {
		return ErrRevoked
	}
	return nil
}

// fault consults the fabric's fault hook for a one-sided verb, applying any
// delay. drop=true means the op must silently do nothing (reads map drop to
// ErrInjected — see faults.go).
func (qp *QP) fault(verb Verb, nbytes int) (drop bool, err error) {
	out := qp.fabric.faultFor(verb, qp.local, qp.remote, nbytes)
	if out.DelayNs > 0 {
		qp.fabric.spinFor(out.DelayNs)
	}
	if out.Err != nil {
		return false, out.Err
	}
	if out.Drop {
		if verb == VerbRead {
			return false, ErrInjected
		}
		return true, nil
	}
	return false, nil
}

// charge accounts one verb of nbytes to this end, passes it through both
// NICs' cost model when that is armed, then waits out the verb's injected
// latency.
func (qp *QP) charge(nbytes int, latencyNs int64) {
	qp.ops.Add(1)
	qp.bytes.Add(int64(nbytes))
	if qp.armed {
		qp.local.admit()
		qp.remote.admit()
	}
	qp.fabric.spinFor(latencyNs)
}

// WriteBytes performs a one-sided RDMA Write of src into the remote region
// at off. The target CPU is not involved.
func (qp *QP) WriteBytes(mr *MemoryRegion, off int, src []byte) error {
	if err := qp.checkTarget(mr); err != nil {
		return err
	}
	if off < 0 || off+len(src) > len(mr.data) {
		return ErrOutOfBounds
	}
	if drop, err := qp.fault(VerbWrite, len(src)); err != nil {
		return err
	} else if drop {
		return nil
	}
	qp.charge(len(src), qp.fabric.cfg.WriteNs)
	copy(mr.data[off:], src)
	return nil
}

// WriteWord performs a one-sided write of a single word (atomic publication).
func (qp *QP) WriteWord(mr *MemoryRegion, wordIdx int, val uint64) error {
	if err := qp.checkTarget(mr); err != nil {
		return err
	}
	if mr.words == nil || wordIdx < 0 || wordIdx >= mr.words.Len() {
		return ErrOutOfBounds
	}
	if drop, err := qp.fault(VerbWrite, 8); err != nil {
		return err
	} else if drop {
		return nil
	}
	qp.charge(8, qp.fabric.cfg.WriteNs)
	if invariant.Enabled {
		mr.words.Validate(wordIdx, val)
	}
	mr.words.Store(wordIdx, val)
	return nil
}

// WriteIndicated posts one RDMA Write carrying an indicator-encapsulated
// message: the payload bytes land first, then tail and head indicator words
// are published in order. The in-order delivery of RC RDMA Write makes this
// a single posted work request on real hardware; it is charged as one NIC op.
//
// hydralint:publishes
func (qp *QP) WriteIndicated(mr *MemoryRegion, off int, body []byte, tailIdx, headIdx int, indicator uint64) error {
	if err := qp.checkTarget(mr); err != nil {
		return err
	}
	if off < 0 || off+len(body) > len(mr.data) {
		return ErrOutOfBounds
	}
	if mr.words == nil || tailIdx < 0 || tailIdx >= mr.words.Len() || headIdx < 0 || headIdx >= mr.words.Len() {
		return ErrOutOfBounds
	}
	if drop, err := qp.fault(VerbWrite, len(body)+16); err != nil {
		return err
	} else if drop {
		return nil
	}
	qp.charge(len(body)+16, qp.fabric.cfg.WriteNs)
	copy(mr.data[off:], body)
	mr.words.Store(tailIdx, indicator)
	mr.words.Store(headIdx, indicator)
	return nil
}

// Read performs a one-sided RDMA Read: it copies n bytes from the remote
// region at off into dst and atomically loads the requested words, all in a
// single round trip with one latency charge. Returns the number of bytes
// copied and the word values.
func (qp *QP) Read(mr *MemoryRegion, off int, dst []byte, wordIdxs ...int) (int, []uint64, error) {
	var words []uint64
	if len(wordIdxs) > 0 {
		words = make([]uint64, len(wordIdxs))
	}
	n, err := qp.ReadInto(mr, off, dst, words, wordIdxs...)
	if err != nil {
		return 0, nil, err
	}
	return n, words, nil
}

// ReadInto is Read with a caller-provided word buffer: words[i] receives the
// value of wordIdxs[i], so steady-state pollers can reuse one scratch slice
// and keep the one-sided GET path allocation-free. len(words) must be at
// least len(wordIdxs).
func (qp *QP) ReadInto(mr *MemoryRegion, off int, dst []byte, words []uint64, wordIdxs ...int) (int, error) {
	if err := qp.checkTarget(mr); err != nil {
		return 0, err
	}
	if off < 0 || off+len(dst) > len(mr.data) {
		return 0, ErrOutOfBounds
	}
	if len(words) < len(wordIdxs) {
		return 0, ErrOutOfBounds
	}
	for _, w := range wordIdxs {
		if mr.words == nil || w < 0 || w >= mr.words.Len() {
			return 0, ErrOutOfBounds
		}
	}
	if _, err := qp.fault(VerbRead, len(dst)); err != nil {
		return 0, err
	}
	qp.charge(len(dst), qp.fabric.cfg.ReadNs)
	n := copy(dst, mr.data[off:off+len(dst)])
	for i, w := range wordIdxs {
		words[i] = mr.words.Load(w)
		if invariant.Enabled {
			mr.words.Validate(w, words[i])
		}
	}
	return n, nil
}

// Send transmits msg two-sided; the receiver's CPU must call Recv. The
// message is copied, so the caller may reuse msg.
func (qp *QP) Send(msg []byte) error {
	if qp.Closed() {
		return ErrClosed
	}
	out := qp.fabric.faultFor(VerbSend, qp.local, qp.remote, len(msg))
	if out.DelayNs > 0 {
		qp.fabric.spinFor(out.DelayNs)
	}
	if out.Err != nil {
		return out.Err
	}
	if out.Drop {
		return nil
	}
	qp.charge(len(msg), qp.fabric.cfg.SendNs)
	buf := make([]byte, len(msg))
	copy(buf, msg)
	if out.Reorder && qp.reorder.hold(buf) {
		return nil // delivered after the next send on this end
	}
	if err := qp.deliver(buf); err != nil {
		return err
	}
	if out.Duplicate {
		dup := make([]byte, len(buf))
		copy(dup, buf)
		if err := qp.deliver(dup); err != nil {
			return err
		}
	}
	if held := qp.reorder.take(); held != nil {
		return qp.deliver(held)
	}
	return nil
}

// deliver enqueues one already-copied message toward the peer, blocking
// cooperatively when the receiver queue is full and bailing out on close.
func (qp *QP) deliver(buf []byte) error {
	select {
	case qp.sendCh <- buf:
		return nil
	default:
	}
	for {
		if qp.Closed() {
			return ErrClosed
		}
		select {
		case qp.sendCh <- buf:
			return nil
		case <-time.After(time.Millisecond):
		}
	}
}

// Recv blocks for the next message. ok=false means the QP closed.
func (qp *QP) Recv() ([]byte, bool) {
	for {
		select {
		case m := <-qp.recvCh:
			return m, true
		default:
		}
		if qp.Closed() {
			// Drain anything already delivered before reporting closure.
			select {
			case m := <-qp.recvCh:
				return m, true
			default:
				return nil, false
			}
		}
		select {
		case m := <-qp.recvCh:
			return m, true
		case <-time.After(time.Millisecond):
		}
	}
}

// TryRecv polls for a message without blocking.
func (qp *QP) TryRecv() ([]byte, bool) {
	select {
	case m := <-qp.recvCh:
		return m, true
	default:
		return nil, false
	}
}

// String identifies the QP for diagnostics.
func (qp *QP) String() string {
	return fmt.Sprintf("qp{%s->%s}", qp.local.name, qp.remote.name)
}
