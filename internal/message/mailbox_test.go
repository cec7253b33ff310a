package message

import (
	"bytes"
	"fmt"
	"testing"

	"hydradb/internal/arena"
	"hydradb/internal/rdma"
)

// ringPair builds a ring mailbox of the given geometry plus a QP from a
// remote writer NIC.
func ringPair(t testing.TB, slotCap, depth int) (*Mailbox, *rdma.QP) {
	t.Helper()
	f := rdma.NewFabric(rdma.Config{})
	cli, srv := f.NewNIC("cli"), f.NewNIC("srv")
	qc, _ := rdma.Connect(cli, srv, depth)
	mr := srv.Register(make([]byte, slotCap*depth), arena.NewWordArea(depth, 2))
	return NewRing(mr, 0, slotCap, depth, 0), qc
}

// TestRingWrapAround drives several times the ring depth of messages through
// a ring while keeping it as full as the window allows, checking FIFO
// delivery and cursor wrap-around.
func TestRingWrapAround(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 16} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			ring, qp := ringPair(t, 256, depth)
			const total = 100
			written, consumed := 0, 0
			for consumed < total {
				// Fill the window: the writer may keep up to depth in flight.
				for written < total && written-consumed < depth {
					body := []byte(fmt.Sprintf("msg-%03d", written))
					if err := ring.WriteVia(qp, body, uint32(written)); err != nil {
						t.Fatal(err)
					}
					written++
				}
				body, seq, ok := ring.Poll()
				if !ok {
					t.Fatalf("ring with %d outstanding polled empty", written-consumed)
				}
				want := fmt.Sprintf("msg-%03d", consumed)
				if seq != uint32(consumed) || string(body) != want {
					t.Fatalf("slot order broken: got seq=%d %q, want seq=%d %q",
						seq, body, consumed, want)
				}
				ring.Consume()
				consumed++
			}
			if _, _, ok := ring.Poll(); ok {
				t.Fatal("drained ring still polls")
			}
		})
	}
}

// TestRingFullBackpressure verifies the owner-side loopback writer observes
// backpressure: depth writes fill the ring, the depth+1st is rejected, and
// consuming one slot readmits exactly one write.
func TestRingFullBackpressure(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	nic := f.NewNIC("loop")
	const depth = 4
	mr := nic.Register(make([]byte, 64*depth), arena.NewWordArea(depth, 2))
	ring := NewRing(mr, 0, 64, depth, 0)

	for i := 0; i < depth; i++ {
		if err := ring.WriteLocal([]byte("m"), uint32(i)); err != nil {
			t.Fatalf("write %d into empty ring: %v", i, err)
		}
	}
	if err := ring.WriteLocal([]byte("overflow"), depth); err != ErrRingFull {
		t.Fatalf("full ring accepted a write: %v", err)
	}
	ring.Consume() // frees slot 0 — exactly where the write cursor points
	if err := ring.WriteLocal([]byte("m"), depth); err != nil {
		t.Fatalf("write after consume: %v", err)
	}
	if err := ring.WriteLocal([]byte("again"), depth+1); err != ErrRingFull {
		t.Fatalf("ring must be full again: %v", err)
	}
	// Drain everything; seqs 1..depth survive in order.
	for want := uint32(1); want <= depth; want++ {
		_, seq, ok := ring.Poll()
		if !ok || seq != want {
			t.Fatalf("drain: seq=%d ok=%v, want %d", seq, ok, want)
		}
		ring.Consume()
	}
}

// TestRingDepthOneEquivalence checks that a depth-1 ring reproduces the
// original single-slot protocol bit for bit: same word indices, same
// indicator encoding, same data placement, and the same alternation
// behavior through the old NewMailbox constructor.
func TestRingDepthOneEquivalence(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	cli, srv := f.NewNIC("cli"), f.NewNIC("srv")
	qc, _ := rdma.Connect(cli, srv, 4)
	oldMR := srv.Register(make([]byte, 1024), arena.NewWordArea(1, 2))
	newMR := srv.Register(make([]byte, 1024), arena.NewWordArea(1, 2))
	oldBox := NewMailbox(oldMR, 0, 1024, 0, 1)
	newBox := NewRing(newMR, 0, 1024, 1, 0)

	body := []byte("identical-payload")
	if err := oldBox.WriteVia(qc, body, 42); err != nil {
		t.Fatal(err)
	}
	if err := newBox.WriteVia(qc, body, 42); err != nil {
		t.Fatal(err)
	}
	// Bit-for-bit: indicator words and data bytes must match.
	for w := 0; w < 2; w++ {
		if oldMR.Words().Load(w) != newMR.Words().Load(w) {
			t.Fatalf("word %d differs: %#x != %#x", w, oldMR.Words().Load(w), newMR.Words().Load(w))
		}
	}
	if !bytes.Equal(oldMR.Data(), newMR.Data()) {
		t.Fatal("data areas differ")
	}
	// Alternation: poll, consume, and the slot is writable again.
	for round := 0; round < 3; round++ {
		for _, mb := range []*Mailbox{oldBox, newBox} {
			got, seq, ok := mb.Poll()
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("round %d: poll %q %d %v", round, got, seq, ok)
			}
			mb.Consume()
			if mb.Busy() {
				t.Fatal("busy after consume")
			}
			if err := mb.WriteVia(qc, body, uint32(round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if oldMR.Words().Load(0) != newMR.Words().Load(0) {
		t.Fatal("indicators diverged after alternation rounds")
	}
}

// TestRingInOrderVisibility: a message in a later slot must stay invisible
// until the earlier slot is consumed (strict FIFO polling).
func TestRingInOrderVisibility(t *testing.T) {
	ring, qp := ringPair(t, 128, 4)
	if err := ring.WriteVia(qp, []byte("first"), 1); err != nil {
		t.Fatal(err)
	}
	if err := ring.WriteVia(qp, []byte("second"), 2); err != nil {
		t.Fatal(err)
	}
	body, seq, ok := ring.Poll()
	if !ok || seq != 1 || string(body) != "first" {
		t.Fatalf("head of ring: %q %d %v", body, seq, ok)
	}
	// Re-polling without consuming yields the same head slot.
	body2, seq2, _ := ring.Poll()
	if seq2 != 1 || string(body2) != "first" {
		t.Fatal("poll is not idempotent before consume")
	}
	ring.Consume()
	body3, seq3, ok := ring.Poll()
	if !ok || seq3 != 2 || string(body3) != "second" {
		t.Fatalf("second slot: %q %d %v", body3, seq3, ok)
	}
}

// TestRingGeometryValidation: constructors must reject rings that do not fit
// their region.
func TestRingGeometryValidation(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	nic := f.NewNIC("n")
	mr := nic.Register(make([]byte, 256), arena.NewWordArea(2, 2))
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("word overflow", func() { NewRing(mr, 0, 64, 4, 0) })   // 4 slots need 8 words, have 4
	mustPanic("byte overflow", func() { NewRing(mr, 0, 256, 2, 0) })  // 2*256 > 256
	mustPanic("zero depth", func() { NewRing(mr, 0, 64, 0, 0) })      // depth >= 1
	mustPanic("split words", func() { NewMailbox(mr, 0, 256, 0, 2) }) // head/tail not adjacent
	NewRing(mr, 0, 128, 2, 0)                                         // fits: 2 slots, 4 words
}

// TestRingPollRejectsOversizedIndicator: an indicator whose size exceeds the
// slot capacity is torn or corrupt even when head and tail agree; Poll must
// not slice past the slot into its neighbour.
func TestRingPollRejectsOversizedIndicator(t *testing.T) {
	ring, _ := ringPair(t, 64, 4)
	words := ring.mr.Words()
	for _, size := range []int{ring.Capacity() + 1, ring.Capacity() + 8} {
		ind := makeIndicator(1, size)
		words.Store(1, ind)
		words.Store(0, ind)
		if body, _, ok := ring.Poll(); ok {
			t.Errorf("size %d (slot capacity %d): Poll returned a %d-byte body", size, ring.Capacity(), len(body))
		}
	}
}
