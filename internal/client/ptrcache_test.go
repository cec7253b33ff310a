package client

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"hydradb/internal/hashx"
	"hydradb/internal/kv"
)

// entryFor is a self-consistent pointer: every field carries n, so a reader
// that mixed two publications sees unequal fields.
func entryFor(n uint32) PtrEntry {
	return PtrEntry{Ptr: kv.RemotePtr{ShardID: n, DataOff: n, DataLen: n, MetaIdx: n}, LeaseExp: int64(n)}
}

func whole(e PtrEntry) bool {
	n := e.Ptr.DataOff
	return e.Ptr.ShardID == n && e.Ptr.DataLen == n && e.Ptr.MetaIdx == n && e.LeaseExp == int64(n)
}

func cacheKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// TestPtrCacheRaceStress runs writers that publish only self-consistent
// pointers against readers, a deleter, the Renewer's Range and epoch drops,
// over enough keys to grow the table while they run (run under -race). No
// reader may ever see a pointer mixed from two publications.
func TestPtrCacheRaceStress(t *testing.T) {
	c := NewCache()
	const keys, writers, readers, rounds = 3 * initialSlots, 2, 2, 4
	var stop atomic.Bool
	var seen, mixed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < keys; i++ {
					c.Put(cacheKey(i), entryFor(uint32(w*keys*rounds+r*keys+i+1)))
				}
			}
		}(w)
	}
	check := func(e PtrEntry) {
		seen.Add(1)
		if !whole(e) {
			mixed.Add(1)
		}
	}
	var side sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		side.Add(1)
		go func(rd int) {
			defer side.Done()
			for i := rd; !stop.Load(); i = (i + 7) % keys {
				if e, ok := c.Get(cacheKey(i)); ok {
					check(e)
				}
			}
		}(rd)
	}
	side.Add(1)
	go func() {
		defer side.Done()
		for n := 0; !stop.Load(); n++ {
			c.Range(func(_ string, e PtrEntry, _ uint32) bool {
				check(e)
				return true
			})
			c.Delete(cacheKey(n % keys))
			if n%8 == 7 {
				c.Reset()
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	side.Wait()
	if mixed.Load() != 0 {
		t.Fatalf("%d of %d reads saw a pointer mixed from two publications", mixed.Load(), seen.Load())
	}
	if seen.Load() == 0 {
		t.Fatal("readers never saw a cached pointer")
	}
}

// FuzzPtrCacheAgainstModel drives the cache with a byte-coded stream of
// puts, gets, deletes, epoch drops and bulk loads that grow the table, and
// checks it against a map: every Get returns a miss or the latest pointer
// Put under that key, and a deleted or dropped key misses.
func FuzzPtrCacheAgainstModel(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 1, 1})
	f.Add([]byte{4, 0, 4, 1, 4, 2, 4, 3, 4, 4, 1, 3, 1, 200, 2, 7, 3, 0, 1, 7})
	f.Add([]byte{4, 9, 4, 10, 4, 11, 0, 5, 1, 5, 2, 5, 1, 5, 4, 12, 1, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewCache()
		model := map[string]PtrEntry{}
		next := uint32(1)
		put := func(key []byte) {
			e := entryFor(next)
			next++
			c.Put(key, e)
			model[string(key)] = e
		}
		for len(ops) >= 2 {
			op, arg := ops[0]%5, ops[1]
			ops = ops[2:]
			key := cacheKey(int(arg))
			switch op {
			case 0:
				put(key)
			case 1:
				got, ok := c.Get(key)
				want, live := model[string(key)]
				if ok && (!live || got != want) {
					t.Fatalf("Get(%s) = %+v; want a miss or %+v (cached %v)", key, got, want, live)
				}
			case 2:
				c.Delete(key)
				delete(model, string(key))
			case 3:
				c.Reset()
				clear(model)
			case 4:
				// Bulk load 1024 keys: a few of these grow the table.
				for i := 0; i < 1024; i++ {
					put(cacheKey(256 + int(arg)*1024 + i))
				}
			}
		}
		for k, want := range model {
			if got, ok := c.Get([]byte(k)); ok && got != want {
				t.Fatalf("final Get(%s) = %+v, want %+v", k, got, want)
			}
		}
	})
}

// TestPtrCacheBound: four times the cap in distinct keys leaves the table at
// the cap, with at most the cap cached, and the latest keys still found.
func TestPtrCacheBound(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("inserts 4 M keys single-threaded")
	}
	c := NewCache()
	key := make([]byte, 8)
	for i := 0; i < 4*maxSlots; i++ {
		binary.LittleEndian.PutUint64(key, uint64(i))
		c.Put(key, entryFor(uint32(i+1)))
	}
	if n := len(c.cur.Load().slots); n != maxSlots {
		t.Fatalf("table holds %d slots, want the cap %d", n, maxSlots)
	}
	if n := c.Len(); n > maxSlots || n < maxSlots*9/10 {
		t.Fatalf("Len = %d, want at most the cap %d and near it", n, maxSlots)
	}
	binary.LittleEndian.PutUint64(key, uint64(4*maxSlots-1))
	if e, ok := c.Get(key); !ok || e != entryFor(4*maxSlots) {
		t.Fatalf("the last key put misses: %+v %v", e, ok)
	}
}

// TestPtrCachePlacement: with the second-choice bucket, 100 000 keys (the
// read_hot record count) are all still cached after the table has grown
// around them, every bucket starts a 64 B line, a slot is half a line and
// its side record 16 B.
func TestPtrCachePlacement(t *testing.T) {
	c := NewCache()
	const n = 100_000
	for i := 0; i < n; i++ {
		c.Put(cacheKey(i), entryFor(uint32(i+1)))
	}
	missed := 0
	for i := 0; i < n; i++ {
		if e, ok := c.Get(cacheKey(i)); !ok || e != entryFor(uint32(i+1)) {
			missed++
		}
	}
	if missed > n/1000 {
		t.Fatalf("%d of %d keys miss; want at most 0.1%%", missed, n)
	}
	if got := c.Len(); got != n-missed {
		t.Fatalf("Len = %d, want %d", got, n-missed)
	}
	tbl := c.cur.Load()
	if addr := reflect.ValueOf(&tbl.slots[0]).Pointer(); addr%64 != 0 {
		t.Fatalf("slots start at %#x, not on a 64 B line", addr)
	}
	if size := reflect.TypeFor[Slot]().Size(); size != 32 {
		t.Fatalf("Slot is %d bytes, want 32", size)
	}
	if size := reflect.TypeFor[slotSide]().Size(); size != 16 {
		t.Fatalf("slotSide is %d bytes, want 16", size)
	}
}

// TestPtrCacheResetAndAccess: an epoch drop empties the cache in one store;
// access counts saturate at accessCap, a Put of a cached key keeps its
// count, and a new key starts at one.
func TestPtrCacheResetAndAccess(t *testing.T) {
	c := NewCache()
	key := cacheKey(1)
	c.Put(key, entryFor(1))
	for i := 0; i < 2*accessCap; i++ {
		r, _, ok := c.lookup(key)
		if !ok {
			t.Fatal("cached key misses")
		}
		r.touch()
	}
	if n, _ := accessOf(c, key); n != accessCap {
		t.Fatalf("access count %d, want it saturated at %d", n, accessCap)
	}
	c.Put(key, entryFor(2))
	if n, _ := accessOf(c, key); n != accessCap {
		t.Fatalf("a Put of a cached key reset its access count to %d", n)
	}
	c.Put(cacheKey(2), entryFor(3))
	if n, _ := accessOf(c, cacheKey(2)); n != 1 {
		t.Fatalf("a new key starts at access count %d, want 1", n)
	}
	c.Reset()
	if _, ok := c.Get(key); ok || c.Len() != 0 {
		t.Fatalf("Reset kept a pointer (Len %d)", c.Len())
	}
}

// TestPtrCacheStaleRefreshSparesReusedSlot: a lease refresh that lands after
// its slot was emptied and reused for another key must leave that key's
// entry, lease included, as it was. The refresh of a one-sided read
// (client.go) can run late against a concurrent Delete and Put.
func TestPtrCacheStaleRefreshSparesReusedSlot(t *testing.T) {
	c := NewCache()
	c.Put(cacheKey(1), entryFor(1))
	ref, _, ok := c.lookup(cacheKey(1))
	if !ok {
		t.Fatal("cached key misses")
	}
	c.Delete(cacheKey(1))
	// Another key whose home bucket holds the emptied slot takes it.
	var other []byte
	for n := 2; other == nil; n++ {
		k := cacheKey(n)
		h := hashx.Hash(k)
		if b1, _ := ref.t.buckets(h, tagOf(h)); b1 == ref.i/2 {
			other = k
		}
	}
	c.Put(other, entryFor(7))
	if r, _, ok := c.lookup(other); !ok || r.i != ref.i {
		t.Fatalf("the other key did not reuse slot %d", ref.i)
	}
	ref.refresh(entryFor(9))
	if e, ok := c.Get(other); !ok || e != entryFor(7) {
		t.Fatalf("a stale refresh changed the slot's new key: %+v, want %+v", e, entryFor(7))
	}
	if _, ok := c.Get(cacheKey(1)); ok {
		t.Fatal("a stale refresh brought the deleted key back")
	}
}
