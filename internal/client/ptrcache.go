package client

import (
	"sync"
	"sync/atomic"

	"hydradb/internal/hashx"
	"hydradb/internal/kv"
)

// PtrEntry is a cached remote pointer plus the lease it was granted under
// (§4.2.2). The cache stores it inline in a slot and returns it by value.
type PtrEntry struct {
	Ptr      kv.RemotePtr
	LeaseExp int64
}

const (
	// initialSlots sizes a new table: 128 KB of slots, a large allocation
	// the Go allocator page-aligns, so every two-slot bucket is one line.
	initialSlots = 1 << 12
	// maxSlots caps the table at 32 MB of slots and 16 MB of side records;
	// past it, inserts evict.
	maxSlots = 1 << 20
	// accessCap is where a slot's access count saturates. It clears every
	// renewal threshold in use (1 and 2), and once reached a hit on the key
	// stores nothing.
	accessCap = 15
	// verOne is one step of the version half of a slot's version word.
	verOne = 1 << 32
	// slotWords is the payload of a slot: location, size and lease.
	slotWords = 3
)

// Slot is one cached remote pointer in 32 bytes, two to a 64 B bucket line,
// under a seqlock: ver holds version<<32 | tag, and an odd version means a
// writer holds the slot. Tag 0 marks an empty slot. The payload words are
// ShardID<<32 | DataOff, DataLen<<32 | MetaIdx, and the lease expiry.
//
// A writer CASes the version from even to odd, stores the payload and
// stores the version plus two with the new tag. A reader loads the version,
// the payload and the version again, and trusts the payload only when both
// loads match and are even. A writer that finds the slot busy drops its
// write: the cache is advisory, so that costs at most one message GET.
//
// The step methods are exported so hydramc's ptrcache model can interleave
// a writer and a reader one word at a time over the code the cache runs.
//
// hydralint:layout size=32 align=8
type Slot struct {
	ver atomic.Uint64
	w   [slotWords]atomic.Uint64
}

// Version loads the version word.
func (s *Slot) Version() uint64 { return s.ver.Load() }

// Acquire takes the slot for writing if its version word is still seen
// and even, making the version odd.
func (s *Slot) Acquire(seen uint64) bool {
	return seen&verOne == 0 && s.ver.CompareAndSwap(seen, seen+verOne)
}

// Word loads payload word i.
func (s *Slot) Word(i int) uint64 { return s.w[i].Load() }

// SetWord stores payload word i; only the writer holding the slot calls it.
func (s *Slot) SetWord(i int, v uint64) { s.w[i].Store(v) }

// Release ends the write Acquire(seen) began: the version moves two past
// seen, even again, and the slot's tag becomes tag.
func (s *Slot) Release(seen uint64, tag uint32) {
	s.ver.Store((seen>>32+2)<<32 | uint64(tag))
}

func packEntry(e PtrEntry) [slotWords]uint64 {
	p := e.Ptr
	return [slotWords]uint64{
		uint64(p.ShardID)<<32 | uint64(p.DataOff),
		uint64(p.DataLen)<<32 | uint64(p.MetaIdx),
		uint64(e.LeaseExp),
	}
}

func unpackEntry(w0, w1, w2 uint64) PtrEntry {
	return PtrEntry{
		Ptr:      kv.RemotePtr{ShardID: uint32(w0 >> 32), DataOff: uint32(w0), DataLen: uint32(w1 >> 32), MetaIdx: uint32(w1)},
		LeaseExp: int64(w2),
	}
}

// tagOf derives a key's 32-bit slot tag from the high half of its hash;
// the bucket index comes from the low half. Zero is the empty tag.
func tagOf(h uint64) uint32 {
	if t := uint32(h >> 32); t != 0 {
		return t
	}
	return 1
}

// slotSide is what a slot keeps off its lookup line, in one 16 B record so
// an insert touches one more line, not three: the key (read only by Range),
// the low half of the key's hash (which places the entry in its other
// bucket and in a grown table without rehashing the key) and the access
// count.
//
// hydralint:layout size=16 align=8
type slotSide struct {
	key  atomic.Pointer[string]
	home atomic.Uint32
	hits atomic.Uint32
}

// ptrTable is one generation of the cache: slots in two-slot buckets, and
// beside them each slot's side record.
type ptrTable struct {
	slots []Slot
	side  []slotSide
	mask  uint64 // buckets - 1
	_     [64]byte
	used  atomic.Int64 // occupied slots
}

func newPtrTable(n int) *ptrTable {
	return &ptrTable{
		slots: make([]Slot, n),
		side:  make([]slotSide, n),
		mask:  uint64(n/2 - 1),
	}
}

// buckets returns a key's home bucket and its second choice, the home
// XORed with an odd mix of the tag: it always differs, does not depend on
// the bits that picked the home, and each bucket is the other's other.
func (t *ptrTable) buckets(h uint64, tag uint32) (b1, b2 int) {
	home := int(h & t.mask)
	return home, t.other(home, tag)
}

// other returns the second choice of bucket b for tag.
func (t *ptrTable) other(b int, tag uint32) int {
	alt := (uint64(tag)*0x9e3779b97f4a7c15)>>32 | 1
	return int((uint64(b) ^ alt) & t.mask)
}

// slotRef names the slot a lookup hit and the version it read there, so a
// later lease refresh or drop applies only while the slot still holds
// what was read.
type slotRef struct {
	t   *ptrTable
	i   int
	ver uint64
}

// lookup finds the slot holding tag in the key's two buckets. A hit loads
// one line and compares no key: the one-sided read re-checks the embedded
// key, guardian and lease (§4.2.3), so a tag collision costs one message
// GET. A slot a writer holds, or one rewritten mid-read, reads as a miss.
//
// hydralint:hotpath
func (t *ptrTable) lookup(h uint64, tag uint32) (slotRef, PtrEntry, bool) {
	b1, b2 := t.buckets(h, tag)
	for _, b := range [2]int{b1, b2} {
		for i := 2 * b; i < 2*b+2; i++ {
			s := &t.slots[i]
			ver := s.Version()
			if uint32(ver) != tag {
				continue
			}
			if ver&verOne != 0 {
				return slotRef{}, PtrEntry{}, false
			}
			w0, w1, w2 := s.Word(0), s.Word(1), s.Word(2)
			if recheck := s.Version(); recheck != ver {
				return slotRef{}, PtrEntry{}, false
			}
			return slotRef{t, i, ver}, unpackEntry(w0, w1, w2), true
		}
	}
	return slotRef{}, PtrEntry{}, false
}

// slotKey is a slot's key and the low half of its hash.
type slotKey struct {
	key  *string
	home uint32
}

// snapshot reads slot i with its key, for Range, relocation and grow; ok is
// false for an empty slot or one a writer holds or rewrote mid-read.
func (t *ptrTable) snapshot(i int) (ver uint64, e PtrEntry, k slotKey, ok bool) {
	s := &t.slots[i]
	ver = s.Version()
	if uint32(ver) == 0 || ver&verOne != 0 {
		return 0, PtrEntry{}, slotKey{}, false
	}
	w0, w1, w2 := s.Word(0), s.Word(1), s.Word(2)
	k = slotKey{t.side[i].key.Load(), t.side[i].home.Load()}
	if recheck := s.Version(); recheck != ver || k.key == nil {
		return 0, PtrEntry{}, slotKey{}, false
	}
	return ver, unpackEntry(w0, w1, w2), k, true
}

// publish writes e under tag into slot i if the slot still holds version
// seen, and reports whether it did. A nil k.key keeps the slot's key.
//
// hydralint:publishes the version store releases the payload and key to
// lookup, snapshot and the other collocated clients
func (t *ptrTable) publish(i int, seen uint64, tag uint32, k slotKey, e PtrEntry) bool {
	s := &t.slots[i]
	if !s.Acquire(seen) {
		return false
	}
	if k.key != nil {
		t.side[i].key.Store(k.key)
		t.side[i].home.Store(k.home)
	}
	w := packEntry(e)
	for j := range w {
		s.SetWord(j, w[j])
	}
	s.Release(seen, tag)
	return true
}

// setHits sets slot i's access count.
func (t *ptrTable) setHits(i int, n uint32) { t.side[i].hits.Store(n) }

// touch counts a hit on slot i until the count saturates.
//
// hydralint:hotpath
func (r slotRef) touch() {
	if h := &r.t.side[r.i].hits; h.Load() < accessCap {
		h.Add(1)
	}
}

// refresh republishes the hit slot with a later lease, unless it changed.
func (r slotRef) refresh(e PtrEntry) { r.t.publish(r.i, r.ver, uint32(r.ver), slotKey{}, e) }

// drop empties the hit slot, unless it changed since the lookup.
func (r slotRef) drop() {
	if r.t.publish(r.i, r.ver, 0, slotKey{}, PtrEntry{}) {
		r.t.used.Add(-1)
	}
}

// put stores e for key: over the slot that holds the key's tag, else in an
// empty candidate slot, else in one a relocation frees. With none of those
// it reports false if the table should grow, and otherwise evicts the
// least-accessed candidate. A key keeps its access count across puts, as a
// server-side item keeps its popularity across updates; a new key starts
// at one.
func (t *ptrTable) put(h uint64, tag uint32, key []byte, e PtrEntry) bool {
	b1, b2 := t.buckets(h, tag)
	empty := -1
	var emptyVer uint64
	for _, b := range [2]int{b1, b2} {
		for i := 2 * b; i < 2*b+2; i++ {
			ver := t.slots[i].Version()
			switch {
			case uint32(ver) == tag:
				t.publish(i, ver, tag, slotKey{}, e)
				return true
			case ver&(verOne|0xffffffff) == 0 && empty < 0: // empty and free
				empty, emptyVer = i, ver
			}
		}
	}
	i, ver := empty, emptyVer
	if i < 0 {
		var moved bool
		if i, ver, moved = t.relocate(b1); !moved {
			if i, ver, moved = t.relocate(b2); !moved {
				if t.shouldGrow() {
					return false
				}
				i = t.victim(b1, b2)
				ver = t.slots[i].Version()
			}
		}
	}
	k := string(key)
	if t.publish(i, ver, tag, slotKey{&k, uint32(h)}, e) {
		if uint32(ver) == 0 {
			t.used.Add(1)
		}
		t.setHits(i, 1)
	}
	return true
}

// relocate frees a slot of full bucket b by copying one occupant into a
// free slot of that occupant's other bucket. It returns the slot it copied
// from and the version the copy read there: publishing over that version
// replaces the occupant, which now lives in its other bucket. Should the
// occupant change in between, that publish fails and the older copy is
// read as stale once, costing one message GET.
func (t *ptrTable) relocate(b int) (int, uint64, bool) {
	for i := 2 * b; i < 2*b+2; i++ {
		ver, e, key, ok := t.snapshot(i)
		if !ok {
			continue
		}
		ob := t.other(b, uint32(ver))
		for j := 2 * ob; j < 2*ob+2; j++ {
			jv := t.slots[j].Version()
			if jv&(verOne|0xffffffff) == 0 && t.publish(j, jv, uint32(ver), key, e) {
				t.used.Add(1)
				t.setHits(j, t.side[i].hits.Load())
				return i, ver, true
			}
		}
	}
	return 0, 0, false
}

// shouldGrow reports whether an insert that found no room should grow the
// table rather than evict: only below the cap, and only when at least half
// full, because below that two full buckets are bad luck and evicting one
// cold pointer is cheaper than doubling.
func (t *ptrTable) shouldGrow() bool {
	return len(t.slots) < maxSlots && 2*t.used.Load() >= int64(len(t.slots))
}

// victim picks the least-accessed slot of buckets b1 and b2.
func (t *ptrTable) victim(b1, b2 int) int {
	v := 2 * b1
	for _, i := range [3]int{2*b1 + 1, 2 * b2, 2*b2 + 1} {
		if t.side[i].hits.Load() < t.side[v].hits.Load() {
			v = i
		}
	}
	return v
}

// PtrCache is the client's remote-pointer cache (§4.2.2). Handed to one
// client it is that client's private cache; handed to every client of a
// machine it is their shared lock-free cache (§4.2.4). Its memory is
// bounded: the table doubles from initialSlots up to maxSlots, and past
// that an insert evicts. An epoch change swaps in an empty table with one
// pointer store.
type PtrCache struct {
	cur    atomic.Pointer[ptrTable]
	growMu sync.Mutex
}

// NewCache builds an empty pointer cache.
func NewCache() *PtrCache {
	c := &PtrCache{}
	c.cur.Store(newPtrTable(initialSlots))
	return c
}

// lookup finds key's cached pointer.
//
// hydralint:hotpath
func (c *PtrCache) lookup(key []byte) (slotRef, PtrEntry, bool) {
	h := hashx.Hash(key)
	return c.cur.Load().lookup(h, tagOf(h))
}

// Get returns key's cached pointer.
func (c *PtrCache) Get(key []byte) (PtrEntry, bool) {
	_, e, ok := c.lookup(key)
	return e, ok
}

// Put caches e for key. A zero pointer is not cached. Only a key's first
// insert allocates (its key string).
func (c *PtrCache) Put(key []byte, e PtrEntry) {
	if e.Ptr.Zero() {
		return
	}
	h := hashx.Hash(key)
	tag := tagOf(h)
	for {
		t := c.cur.Load()
		if t.put(h, tag, key, e) {
			return
		}
		c.grow(t)
	}
}

// Delete drops key's cached pointer.
func (c *PtrCache) Delete(key []byte) {
	if r, _, ok := c.lookup(key); ok {
		r.drop()
	}
}

// Reset drops every cached pointer with one pointer store.
func (c *PtrCache) Reset() { c.cur.Store(newPtrTable(initialSlots)) }

// Len reports the number of cached pointers. It is exact when the cache is
// quiescent and approximate under concurrency.
func (c *PtrCache) Len() int { return int(c.cur.Load().used.Load()) }

// Range calls fn with each cached key, pointer and access count until fn
// returns false. Slots written concurrently may or may not be observed.
func (c *PtrCache) Range(fn func(key string, e PtrEntry, access uint32) bool) {
	t := c.cur.Load()
	for i := range t.slots {
		if _, e, k, ok := t.snapshot(i); ok && !fn(*k.key, e, t.side[i].hits.Load()) {
			return
		}
	}
}

// grow replaces t by a table twice its size, unless t is no longer
// current. The copy is best effort: a slot a writer holds, or a write that
// lands in t after its slot was copied, is lost, which costs at most one
// message GET. Readers never wait; writers that also found t full wait on
// growMu and then retry on the new table.
func (c *PtrCache) grow(t *ptrTable) {
	c.growMu.Lock()
	defer c.growMu.Unlock()
	if c.cur.Load() != t {
		return
	}
	nt := newPtrTable(2 * len(t.slots))
	for i := range t.slots {
		if ver, e, k, ok := t.snapshot(i); ok {
			nt.insert(uint32(ver), k, e, t.side[i].hits.Load())
		}
	}
	c.cur.CompareAndSwap(t, nt)
}

// insert places a copied entry in a table no reader has seen yet: in an
// empty candidate slot, or one relocation frees. It drops the entry when
// neither works.
func (t *ptrTable) insert(tag uint32, key slotKey, e PtrEntry, hits uint32) {
	b1, b2 := t.buckets(uint64(key.home), tag)
	for _, b := range [2]int{b1, b2} {
		for i := 2 * b; i < 2*b+2; i++ {
			if ver := t.slots[i].Version(); uint32(ver) == 0 && t.publish(i, ver, tag, key, e) {
				t.used.Add(1)
				t.setHits(i, hits)
				return
			}
		}
	}
	for _, b := range [2]int{b1, b2} {
		if i, ver, ok := t.relocate(b); ok && t.publish(i, ver, tag, key, e) {
			t.setHits(i, hits)
			return
		}
	}
}
