package message

import (
	"testing"
	"unsafe"
)

// TestMailboxCursorLayoutGolden pins the Mailbox cursor padding with
// unsafe.Offsetof: the owner-written read cursor and the writer-written write
// cursor must live on distinct 64-byte cache lines, or every message pays
// coherence traffic between the two goroutines.
func TestMailboxCursorLayoutGolden(t *testing.T) {
	const line = 64
	var m Mailbox
	if got := unsafe.Sizeof(m); got != 192 {
		t.Fatalf("Mailbox is %d bytes, want 192 (three full cache lines)", got)
	}
	rd := unsafe.Offsetof(m.rd)
	wr := unsafe.Offsetof(m.wr)
	if rd != 64 || wr != 128 {
		t.Fatalf("cursor offsets rd=%d wr=%d, want 64 and 128 (one private line each)", rd, wr)
	}
	if rd/line == wr/line {
		t.Fatalf("rd (offset %d) and wr (offset %d) share a cache line: false sharing between owner and writer", rd, wr)
	}
	if unsafe.Sizeof(m)%line != 0 {
		t.Fatalf("Mailbox size %d is not a cache-line multiple; adjacent Mailboxes would share wr's line", unsafe.Sizeof(m))
	}
}

// TestIndicatorPackingGolden drives the indicator word format at the bit
// boundaries: present|seq|size must partition the word exactly, a maximal
// sequence number must not bleed into the size field, and the zero word must
// read as "slot free".
func TestIndicatorPackingGolden(t *testing.T) {
	if presentBits+seqBits+sizeBits != 64 {
		t.Fatalf("indicator fields sum to %d bits, must fill one word", presentBits+seqBits+sizeBits)
	}
	if 64%(8*indicatorWordsPerSlot) != 0 {
		t.Fatalf("a slot's %d indicator words straddle a 64 B line", indicatorWordsPerSlot)
	}
	const maxSeq = uint32(1)<<seqBits - 1
	const size = 0x12345
	w := makeIndicator(maxSeq, size)
	seq, gotSize, present := splitIndicator(w)
	if !present || seq != maxSeq || gotSize != size {
		t.Fatalf("round trip at max seq: got (seq=%#x size=%#x present=%v)", seq, gotSize, present)
	}
	if _, _, present := splitIndicator(0); present {
		t.Fatal("zero word must read as slot free")
	}
	// A sequence number overflowing its field wraps within it instead of
	// clobbering the present bit or the size.
	w = makeIndicator(maxSeq+1, size)
	seq, gotSize, present = splitIndicator(w)
	if !present || seq != 0 || gotSize != size {
		t.Fatalf("seq overflow must wrap in-field: got (seq=%#x size=%#x present=%v)", seq, gotSize, present)
	}
}
