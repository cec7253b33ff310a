package shard

import (
	"runtime"
	"time"

	"hydradb/internal/timing"
)

// The shard loop's idle policy.
const (
	// idleSpins is the number of empty poll rounds before the loop naps.
	idleSpins = 64
	// napNs is the first nap once idle (paper: ~100 ns).
	napNs = 100
	// napMaxNs caps the doubling nap: the worst-case pickup delay for a
	// fresh request arriving after a long idle period.
	napMaxNs = int64(time.Millisecond)
)

// idleBackoff is the adaptive idle policy of the poll loops (§4.2.1),
// replacing the fixed spin-then-Gosched pattern: the first `spins` empty
// rounds yield the processor and re-poll immediately, so a fresh request
// arriving during a burst is picked up at poll latency; after that the loop
// naps, doubling the nap from napNs up to napMaxNs. An idle shard therefore
// converges to one wakeup per nap cap (negligible CPU), and the worst-case
// pickup delay for a fresh request after an arbitrarily long idle period
// stays bounded by one nap cap.
type idleBackoff struct {
	spins    int
	napNs    int64
	napMaxNs int64

	rounds int   // empty rounds since the last progress
	nap    int64 // current nap length; 0 while still in the spin phase
}

func newBackoff() idleBackoff {
	return idleBackoff{spins: idleSpins, napNs: napNs, napMaxNs: napMaxNs}
}

// reset returns to the spin phase after a productive poll round.
func (b *idleBackoff) reset() { b.rounds, b.nap = 0, 0 }

// idle records one empty poll round, blocks according to the current phase,
// and reports whether it napped — nap rounds are where the poll loops run
// housekeeping (reclamation) since the request path is provably quiet.
func (b *idleBackoff) idle() bool {
	if b.rounds < b.spins {
		b.rounds++
		// Yield rather than pure-spin: keeps single-core hosts live and
		// lets clients run between polls.
		runtime.Gosched()
		return false
	}
	if b.nap == 0 {
		b.nap = b.napNs
		if b.nap < 1 {
			b.nap = 1
		}
	} else if b.nap < b.napMaxNs {
		b.nap <<= 1
	}
	if b.nap > b.napMaxNs {
		b.nap = b.napMaxNs
	}
	timing.Sleep(b.nap)
	return true
}
