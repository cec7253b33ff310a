package timing

import (
	"runtime"
	"time"
)

// IdleShape selects one of the two idle policies of the server poll loops.
// The shapes are fixed here; no caller tunes them.
//
//	shape       yields  first nap  cap    used by
//	YieldFirst  64      100 ns     1 ms   shard.Run, Pipelined dispatchers, strict-mode secondary
//	NapFirst    0       10 µs      1 ms   logging-mode secondary
type IdleShape uint8

const (
	// YieldFirst suits a loop a request waits on: a fresh request arriving
	// during a burst is picked up at poll latency, and only a quiet period
	// earns a nap (paper: ~100 ns, §4.2.1).
	YieldFirst IdleShape = iota
	// NapFirst suits a loop no request waits on, such as a secondary
	// draining an RDMA Logging ring: it drains while it makes progress and
	// naps at once when the ring is empty, so it stays off the cores the
	// clients and primaries need. The first nap is short because a long one
	// means a long apply burst afterwards, which holds a processor while the
	// request path waits for it.
	NapFirst
)

const (
	yieldFirstSpins = 64
	yieldFirstNapNs = 100
	napFirstNapNs   = 10_000
	// napMaxNs caps the doubling nap: the worst-case pickup delay for work
	// arriving after a long idle period.
	napMaxNs = int64(time.Millisecond)
)

// Backoff is the adaptive idle policy of the server poll loops. The first
// `spins` empty rounds yield the processor and re-poll at once; after that
// the loop naps, doubling the nap from napNs up to napMaxNs. An idle loop
// therefore converges to one wakeup per nap cap (negligible CPU), and the
// pickup delay for work arriving after an arbitrarily long idle period stays
// bounded by one nap cap. spins 0 skips the yield phase.
//
// A Backoff belongs to one loop goroutine.
type Backoff struct {
	spins    int
	napNs    int64
	napMaxNs int64

	rounds int   // empty rounds since the last progress
	nap    int64 // current nap length; 0 until the first nap
}

// NewBackoff returns a Backoff of the given shape in its initial state.
func NewBackoff(shape IdleShape) Backoff {
	if shape == NapFirst {
		return Backoff{napNs: napFirstNapNs, napMaxNs: napMaxNs}
	}
	return Backoff{spins: yieldFirstSpins, napNs: yieldFirstNapNs, napMaxNs: napMaxNs}
}

// Reset returns to the initial state after a productive poll round.
func (b *Backoff) Reset() { b.rounds, b.nap = 0, 0 }

// Idle records one empty poll round, blocks according to the current phase,
// and reports whether it napped — nap rounds are where a poll loop may run
// housekeeping (reclamation), since its request path is quiet.
func (b *Backoff) Idle() bool {
	if b.rounds < b.spins {
		b.rounds++
		// Yield rather than pure-spin: lets clients run between polls.
		runtime.Gosched()
		return false
	}
	if b.nap == 0 {
		b.nap = b.napNs
	} else if b.nap < b.napMaxNs {
		b.nap <<= 1
	}
	if b.nap > b.napMaxNs {
		b.nap = b.napMaxNs
	}
	Sleep(b.nap)
	return true
}
