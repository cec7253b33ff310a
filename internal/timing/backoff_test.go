package timing

import "testing"

// TestIdleBackoffStateMachine pins the backoff shape: spin phase for `spins`
// rounds, then naps doubling from napNs to the napMaxNs cap, and full reset
// on progress.
func TestIdleBackoffStateMachine(t *testing.T) {
	b := Backoff{spins: 3, napNs: 100, napMaxNs: 800}
	for i := 0; i < 3; i++ {
		if b.Idle() {
			t.Fatalf("round %d napped during the spin phase", i)
		}
	}
	wantNaps := []int64{100, 200, 400, 800, 800}
	for i, want := range wantNaps {
		if !b.Idle() {
			t.Fatalf("nap round %d did not nap", i)
		}
		if b.nap != want {
			t.Fatalf("nap round %d: nap=%d, want %d", i, b.nap, want)
		}
	}
	b.Reset()
	if b.rounds != 0 || b.nap != 0 {
		t.Fatalf("reset did not return to spin phase: %+v", b)
	}
	if b.Idle() {
		t.Fatal("first round after reset napped")
	}
}

// TestIdleShapes pins the two shapes: YieldFirst yields 64 rounds and then
// naps from 100 ns; NapFirst naps on its first empty round, from 10 µs, and
// again on its first empty round after a reset. Both cap at 1 ms.
func TestIdleShapes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		shape     IdleShape
		spins     int
		firstNap  int64
		capNapsAt int // nap rounds until the cap
	}{
		{"YieldFirst", YieldFirst, 64, 100, 15},
		{"NapFirst", NapFirst, 0, 10_000, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBackoff(tc.shape)
			if b.spins != tc.spins || b.napNs != tc.firstNap || b.napMaxNs != 1_000_000 {
				t.Fatalf("shape %+v, want spins %d, first nap %d, cap 1ms", b, tc.spins, tc.firstNap)
			}
			// Fast-forward the yield phase; it is pinned by the state machine
			// test above.
			b.rounds = b.spins
			if !b.Idle() || b.nap != tc.firstNap {
				t.Fatalf("first nap %d, want %d", b.nap, tc.firstNap)
			}
			for i := 1; i < tc.capNapsAt; i++ {
				b.Idle()
			}
			if b.nap != b.napMaxNs {
				t.Fatalf("after %d naps: nap=%d, want the 1ms cap", tc.capNapsAt, b.nap)
			}
			b.Reset()
			if napped := b.Idle(); napped != (tc.spins == 0) {
				t.Fatalf("first round after reset napped=%v, want %v", napped, tc.spins == 0)
			}
		})
	}
}
