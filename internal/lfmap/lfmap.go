// Package lfmap is a concurrent string-keyed hash map with lock-free reads.
// It was the client's remote-pointer cache until client.PtrCache replaced
// it; it lives on only for benchmark/'s stage rig, which times a lookup in
// it as its lfmap.get stage, and is deleted with ROADMAP item 9C, which
// retires that rig.
//
// The table is open-addressed with linear probing. Each slot is a tag word —
// the key's 64-bit hash with bit 0 set, 0 while empty — beside a pointer to
// an entry holding the immutable {hash, key} and an atomically published
// value, so a lookup hashes once, compares tags, and touches a key only when
// the full hash matches. Entries are never removed.
//
// The table doubles at half full. A grow seals every empty slot of the old
// array and copies its entries — the same objects, so an overwrite through a
// stale array is seen through the new one. A writer that meets a seal waits
// for the grow and retries on the new array, so no insert is lost. Get never
// waits: a key it cannot find in an array being copied was not there either.
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
	val  atomic.Pointer[V]
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
	claimed atomic.Int64 // slots holding an entry
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

// Map is a concurrent hash map from string keys to *V values. Get never
// blocks; Put waits only while a grow copies the table or a racing insert
// of the same key is between its two stores.
type Map[V any] struct {
	cur    atomic.Pointer[table[V]]
	growMu sync.Mutex
}

// New creates a map with room for about n entries before its first grow.
func New[V any](n int) *Map[V] {
	size := minSlots
	for size < 2*n {
		size <<= 1
	}
	m := &Map[V]{}
	m.cur.Store(newTable[V](size))
	return m
}

// find probes t for key. It returns the key's entry, or nil with moved set
// when the probe met a seal: the key is not in t but may be in a newer
// table. An entry whose insert is still in flight is not yet visible.
//
// hydralint:hotpath
func find[V any](t *table[V], h uint64, key string) (e *entry[V], moved bool) {
	tag := h | 1
	for i := tag & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.tag.Load() {
		case 0:
			return nil, false
		case sealedTag:
			return nil, true
		case tag:
			if e := s.entry.Load(); e != nil && e.hash == h && e.key == key {
				return e, false
			}
		}
	}
}

// Get returns the value for key, or nil/false when absent.
//
// hydralint:hotpath
func (m *Map[V]) Get(key string) (*V, bool) {
	h := hashx.HashString(key)
	t := m.cur.Load()
	for {
		e, moved := find(t, h, key)
		if e != nil {
			return e.val.Load(), true
		}
		// While t is still current (a grow is copying it), the key is as
		// absent as t says.
		cur := m.cur.Load()
		if !moved || cur == t {
			return nil, false
		}
		t = cur
	}
}

// tryPut stores v under key in t, reporting false when t is sealed or half
// full: the caller grows t and retries. Only a key's first insert into t
// allocates its entry.
func tryPut[V any](t *table[V], h uint64, key string, v *V) bool {
	tag := h | 1
	for i := tag & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		cur := s.tag.Load()
		if cur == 0 {
			if !t.reserve() {
				return false
			}
			e := &entry[V]{hash: h, key: key}
			e.val.Store(v)
			if s.tag.CompareAndSwap(0, tag) {
				s.entry.Store(e)
				return true
			}
			t.claimed.Add(-1)
			cur = s.tag.Load()
		}
		switch cur {
		case sealedTag:
			return false
		case tag:
			if e := s.await(); e.hash == h && e.key == key {
				e.val.Store(v)
				return true
			}
		}
	}
}

// Put stores v under key, inserting or overwriting. v must not be nil.
func (m *Map[V]) Put(key string, v *V) {
	if v == nil {
		panic("lfmap: nil value")
	}
	h := hashx.HashString(key)
	for {
		t := m.cur.Load()
		if tryPut(t, h, key, v) {
			return
		}
		m.grow(t)
	}
}

// grow replaces t by a table twice its size, unless another grow already
// replaced it. Either way it returns once t is no longer current.
func (m *Map[V]) grow(t *table[V]) {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	if m.cur.Load() != t {
		return
	}
	nt := newTable[V](2 * len(t.slots))
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
