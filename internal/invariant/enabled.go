//go:build hydradebug

package invariant

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Enabled reports whether the sanitizers are armed (-tags hydradebug).
const Enabled = true

// GoroutineID returns the runtime id of the calling goroutine. It is only
// available under hydradebug; parsing the stack header costs ~1µs, which is
// acceptable for a sanitizer and unacceptable anywhere else.
func GoroutineID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Header shape: "goroutine 123 [running]:".
	s := buf[:n]
	var id int64
	for i := len("goroutine "); i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	if id == 0 {
		panic("invariant: could not parse goroutine id")
	}
	return id
}

// Owner records which goroutine owns a single-threaded structure and asserts
// that ownership on every operation (shard exclusivity, §4.1.1).
type Owner struct {
	gid atomic.Int64
}

// Acquire records the calling goroutine as owner of a free Owner. A held
// Owner is left as it is, so an event loop may acquire on every round for
// the cost of one load; a second loop over the same structure then trips
// the Assert of its first operation. Losing the race for a free Owner
// panics: two event loops were started over the same structure.
func (o *Owner) Acquire(what string) {
	if o.gid.Load() != 0 {
		return
	}
	id := GoroutineID()
	if !o.gid.CompareAndSwap(0, id) {
		panic(fmt.Sprintf("invariant: %s already owned by goroutine %d, second Acquire from goroutine %d",
			what, o.gid.Load(), id))
	}
}

// Release clears ownership (loop exit or planned hand-off to another
// goroutine, e.g. SWAT promotion adopting a replica store).
func (o *Owner) Release() {
	o.gid.Store(0)
}

// Assert panics when the calling goroutine is not the recorded owner. An
// unowned Owner passes: structures driven without an event loop (tests, the
// pipelined ablation baseline) stay usable.
func (o *Owner) Assert(op string) {
	own := o.gid.Load()
	if own == 0 {
		return
	}
	if id := GoroutineID(); id != own {
		panic(fmt.Sprintf("invariant: %s on goroutine %d violates shard exclusivity (owner goroutine %d)",
			op, id, own))
	}
}

// schedPoint holds the model-checker yield hook installed by SetSchedPoint.
var schedPoint atomic.Pointer[func(string)]

// SchedPoint is a scheduler yield point for the hydramc interleaving checker
// (internal/modelcheck). Instrumented shared-state operations — word-area
// loads, stores and CASes — call it with a tag naming the object touched;
// when a checker is exploring in fine-grained mode it suspends the calling
// model thread here, turning every word access into a scheduling decision.
// With no hook installed (every build except an active fine-grained
// exploration) it is a single atomic load and branch; without -tags
// hydradebug it does not exist at all (see disabled.go).
func SchedPoint(tag string) {
	if f := schedPoint.Load(); f != nil {
		(*f)(tag)
	}
}

// SetSchedPoint installs (or, with nil, removes) the process-wide scheduler
// yield hook. Only the model checker installs one, and only for the duration
// of a fine-grained exploration; the hook itself is responsible for ignoring
// calls from goroutines it does not manage.
func SetSchedPoint(f func(string)) {
	if f == nil {
		schedPoint.Store(nil)
		return
	}
	schedPoint.Store(&f)
}

// AllocTracker canaries an arena's allocation lifecycle.
type AllocTracker struct {
	mu   sync.Mutex
	live map[uint32]int // offset -> class-rounded size
}

// OnAlloc records a live allocation of size bytes at off.
func (t *AllocTracker) OnAlloc(off uint32, size int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live == nil {
		t.live = make(map[uint32]int)
	}
	if prev, dup := t.live[off]; dup {
		panic(fmt.Sprintf("invariant: arena allocator returned live offset %d twice (live size %d, new size %d)",
			off, prev, size))
	}
	t.live[off] = size
}

// OnFree checks a free against the live set: freeing an unknown offset is a
// double free (or a free of a foreign offset), and freeing with the wrong
// size would return the area to the wrong size-class free list.
func (t *AllocTracker) OnFree(off uint32, size int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, ok := t.live[off]
	if !ok {
		panic(fmt.Sprintf("invariant: double or foreign free of arena offset %d (size %d)", off, size))
	}
	if prev != size {
		panic(fmt.Sprintf("invariant: free of arena offset %d with size %d, allocated with size %d",
			off, size, prev))
	}
	delete(t.live, off)
}

// CheckLive asserts that [off, off+n) lies within a live allocation starting
// at off — the local (CPU-side) access discipline. One-sided RDMA Reads are
// exempt by design: a stale remote read of a recycled area is the documented
// §4.2.3 race, detected by the guardian word, not by this sanitizer.
func (t *AllocTracker) CheckLive(off uint32, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	size, ok := t.live[off]
	if !ok {
		panic(fmt.Sprintf("invariant: local access to non-live arena offset %d (use-after-free?)", off))
	}
	if n > size {
		panic(fmt.Sprintf("invariant: access of %d bytes at arena offset %d exceeds live allocation of %d",
			n, off, size))
	}
}
