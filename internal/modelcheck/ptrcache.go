package modelcheck

import (
	"fmt"

	"hydradb/internal/client"
)

// ptrcacheModel checks DESIGN.md invariant (5): a reader of a pointer-cache
// slot never accepts a pointer that mixes two publications, nor one other
// than the pointer published when it loaded the version.
//
// One writer republishes a client.Slot pcGens times while one reader reads
// it pcReads times. Every step is one atomic operation of the real Slot, so
// the checker interleaves the two word by word. Generation g is published
// as three payload words all equal to g; a torn read therefore shows as
// unequal words. The seeded bug is a reader that skips the version re-check
// after loading the payload: it accepts words written after the version it
// trusted, and the checker finds a schedule where they are torn.
var ptrcacheModel = Model{
	Name:  "ptrcache",
	Desc:  "pointer-cache slot seqlock: a reader never accepts a torn or superseded pointer",
	Bug:   "reader skips the version re-check after loading the payload",
	Setup: setupPtrcache,
}

const (
	pcTag   = 0x5eed
	pcWords = 3
	pcGens  = 2 // republications after the initial one
	pcReads = 2 // read attempts
	pcOdd   = 1 << 32
)

// pcWordTag names the step tag of payload word i: accesses to different
// words commute, which lets the checker prune their reorderings.
func pcWordTag(i int) string { return fmt.Sprintf("w%d", i) }

func setupPtrcache(r *Run, bug bool) {
	var s client.Slot
	publish := func(seen, g uint64) {
		if !s.Acquire(seen) {
			r.Failf("setup: Acquire(%#x) failed on an idle slot", seen)
		}
		for i := 0; i < pcWords; i++ {
			s.SetWord(i, g)
		}
		s.Release(seen, pcTag)
	}
	publish(0, 1)
	live := uint64(1) // the published generation; 0 while the writer holds the slot

	r.Spawn("writer", func(t *Thread) {
		for g := uint64(2); g < 2+pcGens; g++ {
			var seen uint64
			t.Step("ver", func() { seen = s.Version() })
			t.Step("ver", func() {
				if !s.Acquire(seen) {
					t.Fail("the only writer failed to acquire the slot at version %#x", seen)
				}
				live = 0
			})
			for i := 0; i < pcWords; i++ {
				t.Step(pcWordTag(i), func() { s.SetWord(i, g) })
			}
			t.Step("ver", func() {
				s.Release(seen, pcTag)
				live = g
			})
		}
	})

	r.Spawn("reader", func(t *Thread) {
		for a := 0; a < pcReads; a++ {
			var ver, want uint64
			t.Step("ver", func() { ver, want = s.Version(), live })
			if uint32(ver) != pcTag || ver&pcOdd != 0 {
				continue // a writer holds the slot: a miss
			}
			var w [pcWords]uint64
			for i := range w {
				t.Step(pcWordTag(i), func() { w[i] = s.Word(i) })
			}
			same := true
			if !bug {
				t.Step("ver", func() { same = s.Version() == ver })
			}
			if !same {
				continue // rewritten mid-read: a miss
			}
			for i := range w {
				if w[i] != want {
					t.Fail("reader accepted payload %v at version %#x, but generation %d was published when it loaded the version", w, ver, want)
				}
			}
		}
	})
}
