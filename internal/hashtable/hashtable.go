// Package hashtable implements HydraDB's compact, cache-friendly hash table
// (paper §4.1.3).
//
// The table stores 48-bit references to key-value items, not the items
// themselves. The main branch is a contiguous array of 64-byte buckets — one
// cache line each. A bucket is eight 8-byte words:
//
//	word 0 (header): bits 0..6  = slot-usage filter (7 bits)
//	                 bits 8..63 = 56-bit link to a dynamically allocated
//	                              overflow bucket (0 = none)
//	words 1..7 (slots): bits 48..63 = 16-bit key signature
//	                    bits  0..47 = 48-bit item reference
//
// A lookup reads one cache line, tests up to seven signatures, and only
// dereferences the full key when a signature matches — cutting pointer
// chasing and full-key comparisons exactly as the paper describes. Overflow
// buckets resolve residual collisions and are merged back after removals.
//
// The table is single-threaded by design: each shard owns one exclusively
// (§4.1.1). Message-based requests index through it; RDMA-Read GETs bypass it
// entirely on the server.
package hashtable

import (
	"errors"
	"fmt"

	"hydradb/internal/arena"
	"hydradb/internal/hashx"
)

// Bucket word geometry. layout_test.go pins these facts against the Bucket
// struct below, so the constants, the doc comment above, and the struct
// cannot drift apart silently.
const (
	slotsPerBucket = 7
	wordsPerBucket = 8
	sigBits        = 16
	refBits        = 48
	filterMask     = 0x7f
	refMask        = (uint64(1) << refBits) - 1
)

// Bucket is the declarative layout of one table bucket: the 8-byte header
// word followed by seven signature|reference slots — exactly one 64-byte
// cache line, the unit a lookup reads (§4.1.3). The table operates on
// []uint64 windows (bucketWords); this struct exists so the golden test
// (layout_test.go) pins the wire format those windows assume.
type Bucket struct {
	Header uint64
	Slots  [slotsPerBucket]uint64
}

// ErrRefTooLarge reports an item reference that does not fit in 48 bits.
var ErrRefTooLarge = errors.New("hashtable: reference exceeds 48 bits")

// MatchFunc reports whether the item referenced by ref has the key being
// looked up. It is only invoked on signature matches.
type MatchFunc func(ref uint64) bool

// Table is the compact hash table.
type Table struct {
	main     []uint64 // hydralint:region nBuckets * 8 words
	nBuckets uint64
	overflow []uint64 // hydralint:region overflow bucket pool, 8 words each
	freeOvf  []uint64 // free overflow bucket ids (1-based)
	size     int

	// Cache-behaviour instrumentation for the §4.1.3 ablation benches.
	Lookups       int64
	LinesTouched  int64
	KeyCompares   int64
	OverflowAlloc int64
	OverflowFree  int64
}

// New creates a table with at least nBuckets main buckets (rounded up to a
// power of two).
func New(nBuckets int) *Table {
	n := uint64(1)
	for n < uint64(nBuckets) {
		n <<= 1
	}
	t := &Table{
		main:     make([]uint64, n*wordsPerBucket),
		nBuckets: n,
	}
	arena.AdviseHugePages(t.main)
	return t
}

// Len reports the number of stored references.
func (t *Table) Len() int { return t.size }

// MainBuckets reports the size of the main branch.
func (t *Table) MainBuckets() int { return int(t.nBuckets) }

// OverflowBuckets reports the number of live overflow buckets.
func (t *Table) OverflowBuckets() int {
	return len(t.overflow)/wordsPerBucket - len(t.freeOvf)
}

func makeSlot(sig uint16, ref uint64) uint64 {
	return uint64(sig)<<refBits | (ref & refMask)
}

func slotSig(w uint64) uint16    { return uint16(w >> refBits) }
func slotRef(w uint64) uint64    { return w & refMask }
func headerLink(h uint64) uint64 { return h >> 8 }
func setHeaderLink(h, link uint64) uint64 {
	return (h & filterMask) | link<<8
}

// bucketWords returns the 8-word window of a bucket. id 0..nBuckets-1 selects
// a main bucket; ids >= nBuckets select overflow bucket (id - nBuckets).
func (t *Table) bucketWords(id uint64) []uint64 {
	if id < t.nBuckets {
		off := id * wordsPerBucket
		return t.main[off : off+wordsPerBucket]
	}
	off := (id - t.nBuckets) * wordsPerBucket
	return t.overflow[off : off+wordsPerBucket]
}

// linkToID converts a header link value (1-based overflow index) to bucket id.
func (t *Table) linkToID(link uint64) uint64 { return t.nBuckets + link - 1 }

func (t *Table) allocOverflow() uint64 {
	t.OverflowAlloc++
	if n := len(t.freeOvf); n > 0 {
		id := t.freeOvf[n-1]
		t.freeOvf = t.freeOvf[:n-1]
		w := t.bucketWords(t.linkToID(id))
		clear(w)
		return id
	}
	t.overflow = append(t.overflow, make([]uint64, wordsPerBucket)...)
	return uint64(len(t.overflow) / wordsPerBucket) // 1-based
}

func (t *Table) freeOverflow(link uint64) {
	t.OverflowFree++
	t.freeOvf = append(t.freeOvf, link)
}

// Lookup finds the reference stored under hashcode h whose item matches.
func (t *Table) Lookup(h uint64, match MatchFunc) (uint64, bool) {
	t.Lookups++
	id := hashx.BucketIndex(h, t.nBuckets)
	sig := hashx.Signature(h)
	for {
		t.LinesTouched++
		w := t.bucketWords(id)
		hdr := w[0]
		filter := hdr & filterMask
		for s := 0; s < slotsPerBucket; s++ {
			if filter&(1<<s) == 0 {
				continue
			}
			slot := w[1+s]
			if slotSig(slot) != sig {
				continue
			}
			t.KeyCompares++
			if match(slotRef(slot)) {
				return slotRef(slot), true
			}
		}
		link := headerLink(hdr)
		if link == 0 {
			return 0, false
		}
		id = t.linkToID(link)
	}
}

// Insert stores ref under hashcode h. If an existing entry matches, its
// reference is replaced and the previous reference returned with
// replaced=true (this is the out-of-place update path: the new area was
// already populated before the table is flipped to it).
func (t *Table) Insert(h uint64, ref uint64, match MatchFunc) (old uint64, replaced bool, err error) {
	if ref&^refMask != 0 {
		return 0, false, ErrRefTooLarge
	}
	sig := hashx.Signature(h)
	id := hashx.BucketIndex(h, t.nBuckets)

	var freeBucket uint64
	var freeSlot = -1
	lastID := id
	for {
		w := t.bucketWords(id)
		hdr := w[0]
		filter := hdr & filterMask
		for s := 0; s < slotsPerBucket; s++ {
			if filter&(1<<s) == 0 {
				if freeSlot < 0 {
					freeBucket, freeSlot = id, s
				}
				continue
			}
			slot := w[1+s]
			if slotSig(slot) != sig {
				continue
			}
			t.KeyCompares++
			if match(slotRef(slot)) {
				old = slotRef(slot)
				w[1+s] = makeSlot(sig, ref)
				return old, true, nil
			}
		}
		link := headerLink(hdr)
		if link == 0 {
			lastID = id
			break
		}
		id = t.linkToID(link)
	}

	if freeSlot >= 0 {
		w := t.bucketWords(freeBucket)
		w[1+freeSlot] = makeSlot(sig, ref)
		w[0] |= 1 << freeSlot
		t.size++
		return 0, false, nil
	}

	// Chain exhausted: hang a fresh overflow bucket off the last one.
	link := t.allocOverflow()
	lw := t.bucketWords(lastID)
	lw[0] = setHeaderLink(lw[0], link)
	nw := t.bucketWords(t.linkToID(link))
	nw[1] = makeSlot(sig, ref)
	nw[0] |= 1
	t.size++
	return 0, false, nil
}

// Delete removes the entry under hashcode h that matches, returning its
// reference. After a removal the bucket chain is compacted: entries from the
// tail overflow bucket back-fill holes and empty overflow buckets are
// unlinked and recycled ("our hash table merges multiple buckets together
// after the remove operations", §4.1.3).
func (t *Table) Delete(h uint64, match MatchFunc) (uint64, bool) {
	sig := hashx.Signature(h)
	root := hashx.BucketIndex(h, t.nBuckets)
	id := root
	for {
		w := t.bucketWords(id)
		hdr := w[0]
		filter := hdr & filterMask
		for s := 0; s < slotsPerBucket; s++ {
			if filter&(1<<s) == 0 {
				continue
			}
			slot := w[1+s]
			if slotSig(slot) != sig {
				continue
			}
			t.KeyCompares++
			if !match(slotRef(slot)) {
				continue
			}
			old := slotRef(slot)
			w[1+s] = 0
			w[0] &^= 1 << s
			t.size--
			t.compact(root)
			return old, true
		}
		link := headerLink(hdr)
		if link == 0 {
			return 0, false
		}
		id = t.linkToID(link)
	}
}

// compact merges a bucket chain after a removal: it moves entries from the
// tail bucket into free slots of earlier buckets, then unlinks the tail if it
// became empty.
func (t *Table) compact(root uint64) {
	for {
		// Find the tail bucket and its predecessor.
		prev := root
		id := root
		for {
			link := headerLink(t.bucketWords(id)[0])
			if link == 0 {
				break
			}
			prev = id
			id = t.linkToID(link)
		}
		if id == root {
			return // no overflow buckets
		}
		tail := t.bucketWords(id)

		// Move tail entries into earlier free slots.
		for s := 0; s < slotsPerBucket; s++ {
			if tail[0]&(1<<s) == 0 {
				continue
			}
			dst, dstSlot, ok := t.findFreeSlotBefore(root, id)
			if !ok {
				return // chain is full up to the tail; nothing to merge
			}
			dw := t.bucketWords(dst)
			dw[1+dstSlot] = tail[1+s]
			dw[0] |= 1 << dstSlot
			tail[1+s] = 0
			tail[0] &^= 1 << s
		}
		if tail[0]&filterMask != 0 {
			return // tail still holds entries
		}
		// Unlink and recycle the now-empty tail.
		pw := t.bucketWords(prev)
		link := headerLink(pw[0])
		pw[0] = setHeaderLink(pw[0], 0)
		t.freeOverflow(link)
		// Loop: the new tail may also be collapsible.
	}
}

// findFreeSlotBefore scans the chain from root up to (excluding) stop for a
// free slot.
func (t *Table) findFreeSlotBefore(root, stop uint64) (uint64, int, bool) {
	id := root
	for id != stop {
		w := t.bucketWords(id)
		filter := w[0] & filterMask
		if filter != filterMask {
			for s := 0; s < slotsPerBucket; s++ {
				if filter&(1<<s) == 0 {
					return id, s, true
				}
			}
		}
		link := headerLink(w[0])
		if link == 0 {
			break
		}
		id = t.linkToID(link)
	}
	return 0, 0, false
}

// Range calls fn for every stored reference until fn returns false. Used for
// data migration and failover replay; order is unspecified.
func (t *Table) Range(fn func(ref uint64) bool) {
	for b := uint64(0); b < t.nBuckets; b++ {
		id := b
		for {
			w := t.bucketWords(id)
			filter := w[0] & filterMask
			for s := 0; s < slotsPerBucket; s++ {
				if filter&(1<<s) != 0 {
					if !fn(slotRef(w[1+s])) {
						return
					}
				}
			}
			link := headerLink(w[0])
			if link == 0 {
				break
			}
			id = t.linkToID(link)
		}
	}
}

// ChainLength reports the number of buckets in the chain holding hashcode h;
// used by tests and the cache-friendliness benchmarks.
func (t *Table) ChainLength(h uint64) int {
	id := hashx.BucketIndex(h, t.nBuckets)
	n := 1
	for {
		link := headerLink(t.bucketWords(id)[0])
		if link == 0 {
			return n
		}
		n++
		id = t.linkToID(link)
	}
}

// CheckInvariants validates internal consistency; tests call it after
// mutation storms.
func (t *Table) CheckInvariants() error {
	count := 0
	seenOvf := make(map[uint64]bool)
	for b := uint64(0); b < t.nBuckets; b++ {
		id := b
		for {
			w := t.bucketWords(id)
			filter := w[0] & filterMask
			for s := 0; s < slotsPerBucket; s++ {
				used := filter&(1<<s) != 0
				if used {
					count++
					if w[1+s] == 0 {
						return fmt.Errorf("bucket %d slot %d marked used but empty", id, s)
					}
				} else if w[1+s] != 0 {
					return fmt.Errorf("bucket %d slot %d marked free but non-zero", id, s)
				}
			}
			link := headerLink(w[0])
			if link == 0 {
				break
			}
			if link > uint64(len(t.overflow)/wordsPerBucket) {
				return fmt.Errorf("bucket %d links to out-of-range overflow %d", id, link)
			}
			if seenOvf[link] {
				return fmt.Errorf("overflow bucket %d linked twice", link)
			}
			seenOvf[link] = true
			id = t.linkToID(link)
		}
	}
	for _, f := range t.freeOvf {
		if seenOvf[f] {
			return fmt.Errorf("overflow bucket %d both free and linked", f)
		}
	}
	if count != t.size {
		return fmt.Errorf("size mismatch: counted %d, recorded %d", count, t.size)
	}
	if got := len(seenOvf) + len(t.freeOvf); got != len(t.overflow)/wordsPerBucket {
		return fmt.Errorf("overflow leak: linked %d + free %d != pool %d",
			len(seenOvf), len(t.freeOvf), len(t.overflow)/wordsPerBucket)
	}
	return nil
}
