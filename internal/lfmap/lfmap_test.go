package lfmap

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New[int](16)
	if _, ok := m.Get("a"); ok {
		t.Fatal("get on empty map")
	}
	v := 42
	m.Put("a", &v)
	got, ok := m.Get("a")
	if !ok || *got != 42 {
		t.Fatalf("get: %v %v", got, ok)
	}
	v2 := 43
	m.Put("a", &v2)
	got, _ = m.Get("a")
	if *got != 43 {
		t.Fatal("overwrite failed")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	if !m.Delete("a") {
		t.Fatal("delete failed")
	}
	if m.Delete("a") {
		t.Fatal("double delete succeeded")
	}
	if _, ok := m.Get("a"); ok {
		t.Fatal("get after delete")
	}
	if m.Len() != 0 {
		t.Fatalf("len after delete = %d", m.Len())
	}
}

func TestReviveTombstone(t *testing.T) {
	m := New[string](4)
	s1 := "one"
	m.Put("k", &s1)
	m.Delete("k")
	s2 := "two"
	m.Put("k", &s2)
	got, ok := m.Get("k")
	if !ok || *got != "two" {
		t.Fatalf("revive failed: %v %v", got, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestCompareAndDelete(t *testing.T) {
	m := New[int](4)
	v1, v2 := 1, 2
	m.Put("k", &v1)
	if m.CompareAndDelete("k", &v2) {
		t.Fatal("CAD with wrong old succeeded")
	}
	if !m.CompareAndDelete("k", &v1) {
		t.Fatal("CAD with correct old failed")
	}
	if _, ok := m.Get("k"); ok {
		t.Fatal("entry survived CAD")
	}
	if m.CompareAndDelete("absent", &v1) {
		t.Fatal("CAD on absent key succeeded")
	}
}

func TestRangeSkipsDeleted(t *testing.T) {
	m := New[int](8)
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
		m.Put(fmt.Sprintf("k%02d", i), &vals[i])
	}
	for i := 0; i < 10; i++ {
		m.Delete(fmt.Sprintf("k%02d", i))
	}
	seen := 0
	m.Range(func(k string, v *int) bool {
		seen++
		if *v < 10 {
			t.Fatalf("deleted entry %s still visible", k)
		}
		return true
	})
	if seen != 10 {
		t.Fatalf("range saw %d live entries, want 10", seen)
	}
	// Early stop.
	n := 0
	m.Range(func(string, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestChainCollisions(t *testing.T) {
	// The smallest table: keys share probe runs and force grows; the tag and
	// key compares must still disambiguate.
	m := New[int](1)
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i
		m.Put(fmt.Sprintf("key%03d", i), &vals[i])
	}
	for i := range vals {
		got, ok := m.Get(fmt.Sprintf("key%03d", i))
		if !ok || *got != i {
			t.Fatalf("key%03d: %v %v", i, got, ok)
		}
	}
}

// TestConcurrentMixed hammers the map from many goroutines. Run with -race
// this validates the lock-free paths.
func TestConcurrentMixed(t *testing.T) {
	m := New[int64](64)
	const (
		workers = 8
		keys    = 32
		iters   = 5000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprintf("key%02d", (w*31+i)%keys)
				switch i % 4 {
				case 0, 1:
					v := int64(w*iters + i)
					m.Put(k, &v)
				case 2:
					if v, ok := m.Get(k); ok && v == nil {
						t.Error("live entry with nil value")
						return
					}
				default:
					m.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	// Post-run: all remaining values must be valid pointers.
	m.Range(func(k string, v *int64) bool {
		if v == nil {
			t.Errorf("nil value for %s", k)
		}
		return true
	})
	if m.Len() < 0 || m.Len() > keys {
		t.Fatalf("implausible len %d", m.Len())
	}
}

func TestConcurrentInsertDistinctKeys(t *testing.T) {
	// All inserts must survive races on the same bucket chain.
	m := New[int](1)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := w*perWorker + i
				m.Put(fmt.Sprintf("w%d-k%d", w, i), &v)
			}
		}(w)
	}
	wg.Wait()
	if m.Len() != workers*perWorker {
		t.Fatalf("lost inserts: len=%d want %d", m.Len(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			got, ok := m.Get(fmt.Sprintf("w%d-k%d", w, i))
			if !ok || *got != w*perWorker+i {
				t.Fatalf("w%d-k%d missing or wrong", w, i)
			}
		}
	}
}

func TestBytesKeysMatchStringKeys(t *testing.T) {
	m := New[int](0)
	v1, v2 := 1, 2
	m.PutBytes([]byte("k"), &v1)
	if got, ok := m.Get("k"); !ok || got != &v1 {
		t.Fatalf("string Get of a []byte Put: %v %v", got, ok)
	}
	if !m.CompareAndSwapBytes([]byte("k"), &v1, &v2) || m.CompareAndSwapBytes([]byte("k"), &v1, &v1) {
		t.Fatal("CompareAndSwap ignored the expected value")
	}
	if got, _ := m.GetBytes([]byte("k")); got != &v2 {
		t.Fatal("swap not visible")
	}
	if m.CompareAndDeleteBytes([]byte("k"), &v1) || !m.DeleteBytes([]byte("k")) {
		t.Fatal("delete by []byte key")
	}
	if m.Len() != 0 {
		t.Fatalf("len = %d", m.Len())
	}
}

// TestByteKeyOpsDoNotAllocate: lookups, overwrites and invalidations by
// []byte key neither copy the key nor allocate; only a first insert does.
func TestByteKeyOpsDoNotAllocate(t *testing.T) {
	m := New[int](0)
	key := []byte("a-key-longer-than-thirty-two-bytes-0123456789")
	v1, v2 := 1, 2
	m.PutBytes(key, &v1)
	allocs := testing.AllocsPerRun(100, func() {
		m.GetBytes(key)
		m.PutBytes(key, &v2)
		m.CompareAndSwapBytes(key, &v2, &v1)
		m.CompareAndDeleteBytes(key, &v2)
		m.GetBytes(key[:4]) // absent: probes to an empty slot
	})
	if allocs != 0 {
		t.Fatalf("[]byte-key operations allocate %.1f/op, want 0", allocs)
	}
}

// TestGrowKeepsInsertsAndDeletes runs writers, readers and CompareAndDelete
// while the table doubles from 16 slots past 64k. No distinct insert may be
// lost, and a value deleted before a read began must never be read back.
// Run it under -race: a grow shares entry objects between arrays.
func TestGrowKeepsInsertsAndDeletes(t *testing.T) {
	const writers, perWriter = 4, 10000 // 40k inserts, 27k left live: a 128k-slot table
	m := New[int](0)
	key := func(w, i int) string { return fmt.Sprintf("w%d-%d", w, i) }
	vals := make([]int, writers*perWriter)
	deleted := make([]atomic.Bool, len(vals))
	var published [writers]atomic.Int64 // per writer: keys [0, n) are in the map
	doomed := func(i int) bool { return i%3 == 0 }

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				vals[k] = k
				if i%2 == 0 {
					m.Put(key(w, i), &vals[k])
				} else {
					m.PutBytes([]byte(key(w, i)), &vals[k])
				}
				published[w].Store(int64(i + 1))
			}
		}(w)
	}
	done := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // deleter: removes every doomed key once it is published
		defer aux.Done()
		next := [writers]int{}
		for {
			progress := false
			for w := 0; w < writers; w++ {
				for ; next[w] < int(published[w].Load()); next[w]++ {
					i := next[w]
					if !doomed(i) {
						continue
					}
					k := w*perWriter + i
					ok := false
					if i%2 == 0 {
						ok = m.CompareAndDelete(key(w, i), &vals[k])
					} else {
						ok = m.CompareAndDeleteBytes([]byte(key(w, i)), &vals[k])
					}
					if !ok {
						t.Errorf("%s: published insert not found by CompareAndDelete", key(w, i))
						return
					}
					deleted[k].Store(true)
					progress = true
				}
			}
			select {
			case <-done:
				if !progress {
					return
				}
			default:
			}
			runtime.Gosched()
		}
	}()
	for r := 0; r < 2; r++ {
		aux.Add(1)
		go func(r int) { // readers: published keys are found, deleted ones are not
			defer aux.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				w := (n + r) % writers
				p := int(published[w].Load())
				if p == 0 {
					runtime.Gosched()
					continue
				}
				i := (n * 7919) % p
				k := w*perWriter + i
				wasDeleted := deleted[k].Load()
				v, ok := m.GetBytes([]byte(key(w, i)))
				switch {
				case wasDeleted && ok:
					t.Errorf("%s: deleted value came back", key(w, i))
					return
				case !doomed(i) && (!ok || v != &vals[k]):
					t.Errorf("%s: published insert lost (ok=%v)", key(w, i), ok)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	aux.Wait()
	if t.Failed() {
		return
	}
	if n := len(m.cur.Load().slots); n <= 1<<16 {
		t.Fatalf("table has %d slots, want the stress to grow it past 64k", n)
	}
	live := 0
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			k := w*perWriter + i
			v, ok := m.Get(key(w, i))
			if doomed(i) {
				if ok {
					t.Fatalf("%s: deleted value came back after the run", key(w, i))
				}
				continue
			}
			live++
			if !ok || v != &vals[k] {
				t.Fatalf("%s: insert lost after the run", key(w, i))
			}
		}
	}
	if m.Len() != live {
		t.Fatalf("len = %d, want %d", m.Len(), live)
	}
}

// TestRevivesSurviveGrows: owners re-put and delete their own keys — reviving
// tombstones in place — while a filler forces grows that sweep tombstones
// (it deletes three keys in four); each owner must always read back its
// last write.
func TestRevivesSurviveGrows(t *testing.T) {
	const owners, keys, rounds = 4, 8, 3000
	m := New[int](0)
	stop := make(chan struct{})
	var filler sync.WaitGroup
	filler.Add(1)
	go func() {
		defer filler.Done()
		v := 0
		for i := 0; i < 50000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("fill%d", i)
			m.Put(k, &v)
			if i%4 != 0 {
				m.Delete(k)
			}
			if i%64 == 63 {
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			vals := make([]int, keys)
			for r := 0; r < rounds; r++ {
				j := r % keys
				k := []byte(fmt.Sprintf("own%d-%d", o, j))
				m.PutBytes(k, &vals[j])
				if v, ok := m.GetBytes(k); !ok || v != &vals[j] {
					t.Errorf("%s: own write lost (ok=%v)", k, ok)
					return
				}
				if r%3 != 0 && !m.DeleteBytes(k) {
					t.Errorf("%s: own write not deletable", k)
					return
				}
			}
		}(o)
	}
	wg.Wait()
	close(stop)
	filler.Wait()
}

// TestChurnDoesNotGrowWithoutBound: a grow that finds mostly tombstones
// rebuilds at the same size instead of doubling.
func TestChurnDoesNotGrowWithoutBound(t *testing.T) {
	m := New[int](0)
	v := 1
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%d", i)
		m.Put(k, &v)
		m.Delete(k)
	}
	if n := len(m.cur.Load().slots); n != minSlots {
		t.Fatalf("churn of one live key grew the table to %d slots", n)
	}
}

// FuzzMapAgainstModel drives random Put, Get, Delete, CompareAndDelete and
// CompareAndSwap sequences, by string and by []byte key (CompareAndSwap has
// only the []byte form), against a map model. The map starts at 16 slots,
// so the sequences cross grows.
func FuzzMapAgainstModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte("\x00\x01\x08\x09\x10\x11\x18\x19\x20\x21\x28\x29\x30\x31\x38\x39\x02\x03"))
	f.Add(bytes.Repeat([]byte{0x00, 0x10, 0x25, 0x3b, 0x47, 0x81, 0xa0, 0xff}, 16))
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New[int](0)
		model := map[string]*int{}
		keyOf := func(b byte) string {
			// 48 keys, some past 32 bytes (the hash's long-key path).
			k := fmt.Sprintf("k%d", b%48)
			if b%5 == 0 {
				k += "-with-a-suffix-beyond-thirty-two-bytes"
			}
			return k
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, k := ops[i], keyOf(ops[i+1])
			byBytes := op&8 != 0
			want := model[k]
			switch op % 8 {
			case 0, 1: // put
				v := new(int)
				if byBytes {
					m.PutBytes([]byte(k), v)
				} else {
					m.Put(k, v)
				}
				model[k] = v
			case 2: // get
				var got *int
				var ok bool
				if byBytes {
					got, ok = m.GetBytes([]byte(k))
				} else {
					got, ok = m.Get(k)
				}
				if got != want || ok != (want != nil) {
					t.Fatalf("op %d: get %s = %p,%v want %p", i/2, k, got, ok, want)
				}
			case 3: // delete
				var ok bool
				if byBytes {
					ok = m.DeleteBytes([]byte(k))
				} else {
					ok = m.Delete(k)
				}
				if ok != (want != nil) {
					t.Fatalf("op %d: delete %s = %v", i/2, k, ok)
				}
				delete(model, k)
			case 4, 5: // compare-and-delete, with the current value or a stale one
				old := want
				if op%8 == 5 || old == nil {
					old = new(int)
				}
				var ok bool
				if byBytes {
					ok = m.CompareAndDeleteBytes([]byte(k), old)
				} else {
					ok = m.CompareAndDelete(k, old)
				}
				if ok != (want != nil && old == want) {
					t.Fatalf("op %d: compare-and-delete %s = %v", i/2, k, ok)
				}
				if ok {
					delete(model, k)
				}
			default: // compare-and-swap, with the current value or a stale one
				old, v := want, new(int)
				if op%8 == 7 || old == nil {
					old = new(int)
				}
				ok := m.CompareAndSwapBytes([]byte(k), old, v)
				if ok != (want != nil && old == want) {
					t.Fatalf("op %d: compare-and-swap %s = %v", i/2, k, ok)
				}
				if ok {
					model[k] = v
				}
			}
			if m.Len() != len(model) {
				t.Fatalf("op %d: len %d, model %d", i/2, m.Len(), len(model))
			}
		}
		seen := 0
		m.Range(func(k string, v *int) bool {
			seen++
			if model[k] != v {
				t.Fatalf("range: %s = %p, model %p", k, v, model[k])
			}
			return true
		})
		if seen != len(model) {
			t.Fatalf("range saw %d entries, model has %d", seen, len(model))
		}
	})
}

func BenchmarkGetHit(b *testing.B) {
	m := New[int](1 << 12)
	const n = 1 << 10
	vals := make([]int, n)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
		vals[i] = i
		m.Put(keys[i], &vals[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i&(n-1)])
	}
}

func BenchmarkPutOverwrite(b *testing.B) {
	m := New[int](1 << 10)
	v := 7
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Put("hot", &v)
	}
}
