package hashtable

import (
	"testing"
	"unsafe"
)

// TestBucketLayoutGolden pins the bucket memory layout with unsafe.Sizeof and
// unsafe.Offsetof: one bucket is exactly one 64-byte cache line — an 8-byte
// header word followed by seven 8-byte slots (§4.1.3).
func TestBucketLayoutGolden(t *testing.T) {
	var b Bucket
	if got := unsafe.Sizeof(b); got != 64 {
		t.Fatalf("Bucket is %d bytes, want exactly one 64-byte cache line", got)
	}
	if got := unsafe.Alignof(b); got != 8 {
		t.Fatalf("Bucket alignment is %d, want 8", got)
	}
	if got := unsafe.Offsetof(b.Header); got != 0 {
		t.Fatalf("Header at offset %d, want 0", got)
	}
	if got := unsafe.Offsetof(b.Slots); got != 8 {
		t.Fatalf("Slots start at offset %d, want 8 (directly after the header word)", got)
	}
	if got := unsafe.Sizeof(b.Slots); got != 7*8 {
		t.Fatalf("Slots are %d bytes, want 7 slots x 8 bytes", got)
	}
	if slotsPerBucket != 7 || wordsPerBucket != 8 {
		t.Fatalf("bucket geometry drifted: slotsPerBucket=%d wordsPerBucket=%d", slotsPerBucket, wordsPerBucket)
	}
}

// TestSlotPackingGolden drives the signature/reference packing at the bit
// boundaries: a full 16-bit signature and a full 48-bit reference must
// round-trip without bleeding into each other, and the header filter mask
// must cover exactly the seven slot bits.
func TestSlotPackingGolden(t *testing.T) {
	if sigBits+refBits != 64 {
		t.Fatalf("sigBits+refBits = %d, slot packing must fill one word", sigBits+refBits)
	}
	w := makeSlot(0xffff, refMask)
	if slotSig(w) != 0xffff {
		t.Fatalf("max reference corrupted the signature: got %#x", slotSig(w))
	}
	if slotRef(w) != refMask {
		t.Fatalf("max signature corrupted the reference: got %#x", slotRef(w))
	}
	w = makeSlot(0, refMask)
	if slotSig(w) != 0 {
		t.Fatalf("reference at the 48-bit boundary leaked into the signature: %#x", slotSig(w))
	}
	if filterMask != (1<<slotsPerBucket)-1 {
		t.Fatalf("filterMask %#x does not cover exactly %d slot bits", filterMask, slotsPerBucket)
	}
}
