// Package lfmap provides the concurrent hash map behind HydraDB's client
// remote-pointer cache (paper §4.2.2, §4.2.4): one instance per client when
// pointers are private, one per machine when collocated clients share them.
//
// The table is open-addressed with linear probing. Each slot is a tag word —
// the key's 64-bit hash with bit 0 set, 0 while empty — beside a pointer to
// an entry holding the immutable {hash, key} and an atomically published
// value, so a lookup hashes once, compares tags, and touches a key only when
// the full hash matches. Entries are never unlinked: deleting clears the
// value (a tombstone) and a later Put revives it in place.
//
// The table doubles at half full. A grow seals every empty slot of the old
// array and copies its entries — the same objects, so an update or delete
// through a stale array is seen through the new one. Once tombstones are
// worth finding it drops them, marking each one dead. A writer that meets a
// seal or a dead entry waits for the grow and retries on the new array, so
// no insert is lost and no deleted value comes back. Get never waits: a key
// it cannot find in an array being copied was not live there either.
//
// The client treats the cache as advisory: every hit is re-checked by lease,
// guardian word and key compare (§4.2.3), so even a lost or duplicated entry
// would cost one message GET, never a wrong value. The map itself loses and
// duplicates nothing; the fuzz and grow-stress tests pin that.
package lfmap

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hydradb/internal/hashx"
)

const (
	minSlots = 16
	// sealedTag marks an empty slot frozen by a grow. Claimed tags are odd.
	sealedTag = 2
)

type entry[V any] struct {
	hash uint64
	key  string
	val  atomic.Pointer[V] // nil: deleted; Map.dead: deleted and left behind by a grow
}

type slot[V any] struct {
	tag   atomic.Uint64
	entry atomic.Pointer[entry[V]] // stored right after the tag is claimed
}

// await returns the slot's entry, yielding through the window between a
// claimer's tag CAS and its entry store.
func (s *slot[V]) await() *entry[V] {
	for {
		if e := s.entry.Load(); e != nil {
			return e
		}
		runtime.Gosched()
	}
}

type table[V any] struct {
	slots   []slot[V]
	mask    uint64
	claimed atomic.Int64 // slots holding an entry, live or deleted
}

func newTable[V any](n int) *table[V] {
	return &table[V]{slots: make([]slot[V], n), mask: uint64(n - 1)}
}

// reserve makes room for one more entry, refusing past half full.
func (t *table[V]) reserve() bool {
	if t.claimed.Add(1) > int64(len(t.slots)/2) {
		t.claimed.Add(-1)
		return false
	}
	return true
}

// Map is a concurrent hash map from string keys to *V values, addressable
// by string or []byte without converting. Get never blocks; Put waits only
// while a grow copies the table or a racing insert of the same key is
// between its two stores. V must not be zero-size.
type Map[V any] struct {
	cur    atomic.Pointer[table[V]]
	live   atomic.Int64
	dead   *V // value of a tombstone a grow left behind
	growMu sync.Mutex
}

// New creates a map with room for about n entries before its first grow.
func New[V any](n int) *Map[V] {
	size := minSlots
	for size < 2*n {
		size <<= 1
	}
	m := &Map[V]{dead: new(V)}
	m.cur.Store(newTable[V](size))
	return m
}

// find probes t for key. It returns the key's entry, or nil with moved set
// when the probe met a seal: the key is not in t but may be in a newer
// table. An entry whose insert is still in flight is not yet visible.
//
// hydralint:hotpath
func find[V any, K ~string | ~[]byte](t *table[V], h uint64, key K) (e *entry[V], moved bool) {
	tag := h | 1
	for i := tag & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.tag.Load() {
		case 0:
			return nil, false
		case sealedTag:
			return nil, true
		case tag:
			if e := s.entry.Load(); e != nil && e.hash == h && e.key == string(key) {
				return e, false
			}
		}
	}
}

// retry reports whether an operation that saw its key moved out of *t
// should run again, on the table that replaced it. While *t is still the
// current table (a grow is copying it), the key is as absent as *t says.
func (m *Map[V]) retry(t **table[V]) bool {
	cur := m.cur.Load()
	if cur == *t {
		return false
	}
	*t = cur
	return true
}

// hydralint:hotpath
func get[V any, K ~string | ~[]byte](m *Map[V], h uint64, key K) (*V, bool) {
	t := m.cur.Load()
	for {
		e, moved := find(t, h, key)
		if e != nil {
			if v := e.val.Load(); v != m.dead {
				return v, v != nil
			}
			moved = true
		}
		if !moved || !m.retry(&t) {
			return nil, false
		}
	}
}

// Get returns the value for key, or nil/false when absent or deleted.
func (m *Map[V]) Get(key string) (*V, bool) { return get(m, hashx.HashString(key), key) }

// GetBytes is Get for a []byte key; it does not allocate.
func (m *Map[V]) GetBytes(key []byte) (*V, bool) { return get(m, hashx.Hash(key), key) }

// tryPut stores v under key in t, reporting false when t is sealed, half
// full, or holds key's dead entry: the caller grows t and retries. Only a
// key's first insert into t allocates — its entry and, from a []byte, its
// string.
func tryPut[V any, K ~string | ~[]byte](m *Map[V], t *table[V], h uint64, key K, v *V) bool {
	tag := h | 1
	for i := tag & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		cur := s.tag.Load()
		if cur == 0 {
			if !t.reserve() {
				return false
			}
			e := &entry[V]{hash: h, key: string(key)}
			e.val.Store(v)
			if s.tag.CompareAndSwap(0, tag) {
				s.entry.Store(e)
				m.live.Add(1)
				return true
			}
			t.claimed.Add(-1)
			cur = s.tag.Load()
		}
		switch cur {
		case sealedTag:
			return false
		case tag:
			if e := s.await(); e.hash == h && e.key == string(key) {
				return m.store(e, v)
			}
		}
	}
}

// store publishes v in e unless a grow left e behind.
func (m *Map[V]) store(e *entry[V], v *V) bool {
	for {
		old := e.val.Load()
		if old == m.dead {
			return false
		}
		if e.val.CompareAndSwap(old, v) {
			if old == nil {
				m.live.Add(1)
			}
			return true
		}
	}
}

func put[V any, K ~string | ~[]byte](m *Map[V], h uint64, key K, v *V) {
	if v == nil {
		panic("lfmap: nil value")
	}
	for {
		t := m.cur.Load()
		if tryPut(m, t, h, key, v) {
			return
		}
		m.grow(t)
	}
}

// Put stores v under key, inserting or overwriting (also reviving a deleted
// entry). v must not be nil.
func (m *Map[V]) Put(key string, v *V) { put(m, hashx.HashString(key), key, v) }

// PutBytes is Put for a []byte key. It hashes and probes once, and
// allocates the key's string only when the key has no entry yet.
func (m *Map[V]) PutBytes(key []byte, v *V) { put(m, hashx.Hash(key), key, v) }

// grow replaces t by a table twice its size — the same size when most of
// t's entries are tombstones — unless another grow already replaced it.
// Either way it returns once t is no longer current.
func (m *Map[V]) grow(t *table[V]) {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	if m.cur.Load() != t {
		return
	}
	n := len(t.slots)
	live := m.live.Load()
	if live >= int64(n/4) {
		n *= 2
	}
	// Finding a tombstone means reading its entry, a cache miss per entry;
	// a handful is cheaper to carry over than to look for.
	sweep := t.claimed.Load()-live > int64(len(t.slots)/16)
	nt := newTable[V](n)
	for i := range t.slots {
		t.slots[i].tag.CompareAndSwap(0, sealedTag)
	}
	copied := int64(0)
	for i := range t.slots {
		s := &t.slots[i]
		tag := s.tag.Load()
		if tag == sealedTag {
			continue
		}
		e := s.await()
		if sweep && e.val.Load() == nil && e.val.CompareAndSwap(nil, m.dead) {
			continue // a tombstone: the copy drops it
		}
		j := tag & nt.mask
		for nt.slots[j].tag.Load() != 0 {
			j = (j + 1) & nt.mask
		}
		nt.slots[j].tag.Store(tag)
		nt.slots[j].entry.Store(e)
		copied++
	}
	nt.claimed.Store(copied)
	m.cur.Store(nt)
}

func compareAndSwap[V any, K ~string | ~[]byte](m *Map[V], h uint64, key K, old, v *V) bool {
	if old == nil || v == nil {
		panic("lfmap: nil value")
	}
	t := m.cur.Load()
	for {
		e, moved := find(t, h, key)
		if e != nil {
			if e.val.CompareAndSwap(old, v) {
				return true
			}
			moved = e.val.Load() == m.dead
		}
		if !moved || !m.retry(&t) {
			return false
		}
	}
}

// CompareAndSwapBytes replaces key's value by v only while key still maps
// to old: how a client republishes a pointer with a fresher lease without
// clobbering a newer pointer another client installed. It does not
// allocate.
func (m *Map[V]) CompareAndSwapBytes(key []byte, old, v *V) bool {
	return compareAndSwap(m, hashx.Hash(key), key, old, v)
}

// remove deletes key's value if it is old (any live value when old is nil),
// reporting whether it deleted one.
func remove[V any, K ~string | ~[]byte](m *Map[V], h uint64, key K, old *V) bool {
	t := m.cur.Load()
	for {
		e, moved := find(t, h, key)
		for e != nil {
			v := e.val.Load()
			if v == m.dead {
				moved = true
				break
			}
			if v == nil || (old != nil && v != old) {
				return false
			}
			if e.val.CompareAndSwap(v, nil) {
				m.live.Add(-1)
				return true
			}
		}
		if !moved || !m.retry(&t) {
			return false
		}
	}
}

// Delete removes key, reporting whether a live entry was removed.
func (m *Map[V]) Delete(key string) bool { return remove(m, hashx.HashString(key), key, nil) }

// DeleteBytes is Delete for a []byte key; it does not allocate.
func (m *Map[V]) DeleteBytes(key []byte) bool { return remove(m, hashx.Hash(key), key, nil) }

// CompareAndDelete removes key only while it still maps to old — the
// invalidation primitive: a client that discovered a stale pointer removes
// it without clobbering a fresher pointer another client just installed.
func (m *Map[V]) CompareAndDelete(key string, old *V) bool {
	return remove(m, hashx.HashString(key), key, old)
}

// CompareAndDeleteBytes is CompareAndDelete for a []byte key; it does not
// allocate.
func (m *Map[V]) CompareAndDeleteBytes(key []byte, old *V) bool {
	return remove(m, hashx.Hash(key), key, old)
}

// Len reports the number of live entries. It is exact when the map is
// quiescent and approximate under concurrency.
func (m *Map[V]) Len() int { return int(m.live.Load()) }

// Range calls fn for each live entry until fn returns false. Entries
// inserted concurrently may or may not be observed.
func (m *Map[V]) Range(fn func(key string, v *V) bool) {
	t := m.cur.Load()
	for i := range t.slots {
		e := t.slots[i].entry.Load()
		if e == nil {
			continue
		}
		if v := e.val.Load(); v != nil && v != m.dead {
			if !fn(e.key, v) {
				return
			}
		}
	}
}
