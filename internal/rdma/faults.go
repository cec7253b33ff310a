// Fault injection. The chaos harness (internal/chaos, cmd/hydrachaos)
// layers deterministic fault schedules on the fabric through a single hook
// consulted by every verb. The hook is deliberately minimal: it sees the
// verb class, the two adaptors, and the payload size, and answers with what
// should happen to the operation. All fault *policy* (rates, partitions,
// which links are eligible for which faults) lives in the injector; the
// fabric only executes outcomes.
//
// Fault semantics follow what a reliably connected (RC) HCA can actually
// exhibit:
//
//   - Err models a completion-with-error (partitioned link, flushed work
//     request): the operation has no effect and the initiator learns it.
//   - Drop models silent loss before any effect: the initiator believes the
//     op succeeded. On RC hardware persistent loss surfaces as a QP error,
//     but transient loss followed by recovery at a higher layer is exactly
//     the regime the client request/response protocol must survive, so the
//     harness injects it on client links (where timeouts + routing refresh
//     recover). Read verbs cannot silently lose data the caller is waiting
//     for, so Drop on a read degrades to Err.
//   - DelayNs busy-waits against the fabric clock before the op executes
//     (congestion, a slow switch hop).
//   - Duplicate and Reorder apply to two-sided sends only: Duplicate
//     enqueues the message twice; Reorder holds the message back until the
//     next send on the same QP end and delivers it after that one (a held
//     message with no successor is lost, i.e. reorder degrades to drop at
//     stream end).
package rdma

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrInjected is returned by operations failed by a fault hook.
var ErrInjected = errors.New("rdma: injected fault")

// Verb classifies the fabric operation a fault hook observes.
type Verb uint8

// Verb classes. One-sided writes (WriteBytes, WriteWord, WriteIndicated)
// share VerbWrite; one-sided reads are VerbRead; two-sided sends VerbSend.
const (
	VerbSend Verb = iota
	VerbWrite
	VerbRead
)

// String names the verb.
func (v Verb) String() string {
	switch v {
	case VerbSend:
		return "send"
	case VerbWrite:
		return "write"
	case VerbRead:
		return "read"
	default:
		return "verb?"
	}
}

// FaultOutcome tells the fabric what to do with one intercepted operation.
// The zero value lets the op through untouched.
type FaultOutcome struct {
	// Err fails the op with no side effects; the initiator sees the error.
	Err error
	// Drop discards the op silently: the initiator sees success. Reads
	// treat Drop as Err (see package comment).
	Drop bool
	// DelayNs busy-waits before the op executes.
	DelayNs int64
	// Duplicate (sends only) enqueues the message twice.
	Duplicate bool
	// Reorder (sends only) holds the message until after the next send.
	Reorder bool
}

// FaultHook intercepts fabric operations. It runs on the initiator's
// goroutine for every verb of every QP of the fabric, so it must be cheap
// and safe for concurrent use.
type FaultHook func(verb Verb, local, remote *NIC, nbytes int) FaultOutcome

// SetFaultHook installs (or, with nil, removes) the fabric-wide fault hook.
// Safe to call concurrently with traffic.
func (f *Fabric) SetFaultHook(h FaultHook) {
	if h == nil {
		f.faults.Store((*FaultHook)(nil))
		return
	}
	f.faults.Store(&h)
}

// faultFor consults the installed hook, if any.
func (f *Fabric) faultFor(verb Verb, local, remote *NIC, nbytes int) FaultOutcome {
	h := f.faults.Load()
	if h == nil || *h == nil {
		return FaultOutcome{}
	}
	return (*h)(verb, local, remote, nbytes)
}

// faultState is the per-fabric hook plus the per-QP reorder buffer state.
type faultState struct {
	faults atomic.Pointer[FaultHook]
}

// reorderBuf is the one-slot hold buffer a QP end uses to implement Reorder.
type reorderBuf struct {
	mu   sync.Mutex
	held []byte
}

// hold stashes msg, returning false when a message is already held (the
// caller should deliver msg normally instead of double-holding).
func (r *reorderBuf) hold(msg []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held != nil {
		return false
	}
	r.held = msg
	return true
}

// take removes and returns the held message, if any.
func (r *reorderBuf) take() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.held
	r.held = nil
	return m
}
