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
	if _, ok := m.Get("b"); ok {
		t.Fatal("get of an absent key")
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
				if i%2 == 0 {
					v := int64(w*iters + i)
					m.Put(k, &v)
				} else if v, ok := m.Get(k); ok && v == nil {
					t.Error("live entry with nil value")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Post-run: every key was put, and its value is a valid pointer.
	for i := 0; i < keys; i++ {
		if v, ok := m.Get(fmt.Sprintf("key%02d", i)); !ok || v == nil {
			t.Fatalf("key%02d: %v %v", i, v, ok)
		}
	}
}

func TestConcurrentInsertDistinctKeys(t *testing.T) {
	// All inserts must survive races on the same probe run.
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
	if n := m.cur.Load().claimed.Load(); n != workers*perWorker {
		t.Fatalf("lost inserts: %d entries, want %d", n, workers*perWorker)
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

// TestGrowKeepsInserts runs writers and readers while the table doubles from
// 16 slots past 64k. No insert may be lost, and a reader must find every key
// published before its read began. Run it under -race: a grow shares entry
// objects between arrays.
func TestGrowKeepsInserts(t *testing.T) {
	const writers, perWriter = 4, 10000 // 40k inserts: a 128k-slot table
	m := New[int](0)
	key := func(w, i int) string { return fmt.Sprintf("w%d-%d", w, i) }
	vals := make([]int, writers*perWriter)
	var published [writers]atomic.Int64 // per writer: keys [0, n) are in the map

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := w*perWriter + i
				vals[k] = k
				m.Put(key(w, i), &vals[k])
				published[w].Store(int64(i + 1))
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
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
				if v, ok := m.Get(key(w, i)); !ok || v != &vals[w*perWriter+i] {
					t.Errorf("%s: published insert lost (ok=%v)", key(w, i), ok)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}
	if n := len(m.cur.Load().slots); n <= 1<<16 {
		t.Fatalf("table has %d slots, want the stress to grow it past 64k", n)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if v, ok := m.Get(key(w, i)); !ok || v != &vals[w*perWriter+i] {
				t.Fatalf("%s: insert lost after the run", key(w, i))
			}
		}
	}
}

// TestChurnDoesNotGrowWithoutBound: overwriting a few keys over and over
// reuses their entries and never grows the table.
func TestChurnDoesNotGrowWithoutBound(t *testing.T) {
	m := New[int](0)
	vals := make([]int, 10000)
	for i := range vals {
		m.Put(fmt.Sprintf("k%d", i%4), &vals[i])
	}
	if n := len(m.cur.Load().slots); n != minSlots {
		t.Fatalf("churn of four keys grew the table to %d slots", n)
	}
}

// FuzzMapAgainstModel drives random Put and Get sequences against a map
// model. The map starts at 16 slots, so the sequences cross grows.
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
			if op%2 == 0 {
				v := new(int)
				m.Put(k, v)
				model[k] = v
				continue
			}
			want := model[k]
			if got, ok := m.Get(k); got != want || ok != (want != nil) {
				t.Fatalf("op %d: get %s = %p,%v want %p", i/2, k, got, ok, want)
			}
		}
		for k, want := range model {
			if got, ok := m.Get(k); !ok || got != want {
				t.Fatalf("final get %s = %p,%v want %p", k, got, ok, want)
			}
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
