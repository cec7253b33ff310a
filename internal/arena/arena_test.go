package arena

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hydradb/internal/testutil"
)

func TestClassesMonotonic(t *testing.T) {
	prev := 0
	for _, s := range classSizes {
		if s <= prev {
			t.Fatalf("class sizes not strictly increasing: %d after %d", s, prev)
		}
		prev = s
	}
	if classSizes[0] != 32 {
		t.Fatalf("smallest class = %d, want 32", classSizes[0])
	}
	if MaxAlloc() < 4<<20 {
		t.Fatalf("max class %d cannot hold §2.1's 4 MB input chunks", MaxAlloc())
	}
	// The smallest class packs evenly into a cache line, and every class
	// from the first page class up is whole lines.
	if cacheLineBytes%minClassBytes != 0 || minClassBytes%16 != 0 {
		t.Fatalf("minClassBytes %d must be a multiple of 16 dividing the %d B line", minClassBytes, cacheLineBytes)
	}
	if pageClassBytes%cacheLineBytes != 0 || maxClassBytes%cacheLineBytes != 0 {
		t.Fatalf("page class %d and max class %d must be whole %d B lines", pageClassBytes, maxClassBytes, cacheLineBytes)
	}
}

func TestClassOfBounds(t *testing.T) {
	if classOf(1) != 0 {
		t.Fatal("1 byte should use the smallest class")
	}
	if classOf(32) != 0 {
		t.Fatal("exactly 32 bytes should use class 0")
	}
	if classOf(33) != 1 {
		t.Fatal("33 bytes should use class 1")
	}
	if classOf(MaxAlloc()+1) != -1 {
		t.Fatal("oversized allocation must map to -1")
	}
}

func TestClassFragmentationBound(t *testing.T) {
	// Internal fragmentation must stay below ~52% for any size (worst case
	// right above a class boundary).
	for n := 1; n <= 1<<16; n += 7 {
		c := ClassSize(n)
		if c < n {
			t.Fatalf("class %d smaller than request %d", c, n)
		}
		if float64(c) > float64(n)*2.05 && n > 16 {
			t.Fatalf("fragmentation too high: n=%d class=%d", n, c)
		}
	}
}

func TestAllocFreeReuse(t *testing.T) {
	a := New(1 << 16)
	off1, err := a.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(off1, 40)
	off2, err := a.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != off2 {
		t.Fatalf("free-list reuse failed: %d vs %d", off1, off2)
	}
	if a.Allocs() != 2 || a.Frees() != 1 {
		t.Fatalf("counters: allocs=%d frees=%d", a.Allocs(), a.Frees())
	}
}

func TestFreeZeroesMemory(t *testing.T) {
	a := New(1 << 12)
	off := testutil.Must1(a.Alloc(64))
	b := a.Bytes(off, 64)
	for i := range b {
		b[i] = 0xAB
	}
	a.Free(off, 64)
	// Inspect through the raw region view: Bytes would (correctly) trip the
	// hydradebug use-after-free canary on freed memory.
	b2 := a.Data()[off : int(off)+64]
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("byte %d not zeroed after free: %x", i, v)
		}
	}
}

func TestAllocExhaustion(t *testing.T) {
	a := New(128)
	if _, err := a.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(64); err != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestAllocInvalidSizes(t *testing.T) {
	a := New(1024)
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("Alloc(0) must fail")
	}
	if _, err := a.Alloc(-3); err == nil {
		t.Fatal("Alloc(-3) must fail")
	}
	if _, err := a.Alloc(MaxAlloc() + 1); err == nil {
		t.Fatal("oversized Alloc must fail")
	}
}

func TestLiveAccounting(t *testing.T) {
	a := New(1 << 14)
	off := testutil.Must1(a.Alloc(100)) // class 128
	if a.Live() != ClassSize(100) {
		t.Fatalf("live = %d, want %d", a.Live(), ClassSize(100))
	}
	a.Free(off, 100)
	if a.Live() != 0 {
		t.Fatalf("live after free = %d", a.Live())
	}
}

// TestNoOverlapProperty allocates and frees randomly and asserts that live
// allocations never overlap — the core safety invariant for out-of-place
// updates sharing one region.
func TestNoOverlapProperty(t *testing.T) {
	a := New(1 << 18)
	rng := rand.New(rand.NewSource(42))
	type alloc struct {
		off uint32
		n   int
		tag byte
	}
	var live []alloc
	check := func() {
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				x, y := live[i], live[j]
				xs, xe := int(x.off), int(x.off)+ClassSize(x.n)
				ys, ye := int(y.off), int(y.off)+ClassSize(y.n)
				if xs < ye && ys < xe {
					t.Fatalf("overlap: [%d,%d) and [%d,%d)", xs, xe, ys, ye)
				}
			}
		}
	}
	for step := 0; step < 3000; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			n := 1 + rng.Intn(500)
			off, err := a.Alloc(n)
			if err != nil {
				continue // exhausted; fine
			}
			tag := byte(step)
			b := a.Bytes(off, n)
			for i := range b {
				b[i] = tag
			}
			live = append(live, alloc{off, n, tag})
		} else {
			i := rng.Intn(len(live))
			// Verify the content survived (no other allocation scribbled it).
			v := live[i]
			b := a.Bytes(v.off, v.n)
			for j, c := range b {
				if c != v.tag {
					t.Fatalf("allocation corrupted at byte %d: %x != %x", j, c, v.tag)
				}
			}
			a.Free(v.off, v.n)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if step%500 == 0 {
			check()
		}
	}
	check()
}

func TestClassSizeProperty(t *testing.T) {
	f := func(raw int16) bool {
		n := int(raw)
		if n <= 0 {
			return ClassSize(1) == 32
		}
		c := ClassSize(n)
		return c >= n && c <= MaxAlloc()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordArea(t *testing.T) {
	w := NewWordArea(4, 2)
	i1, err := w.AllocGroup()
	if err != nil {
		t.Fatal(err)
	}
	i2, err := w.AllocGroup()
	if err != nil {
		t.Fatal(err)
	}
	if i1 == i2 {
		t.Fatal("groups must be distinct")
	}
	w.Store(i1, 42)
	w.Store(i1+1, 43)
	if w.Load(i1) != 42 || w.Load(i1+1) != 43 {
		t.Fatal("word store/load mismatch")
	}
	if !w.CompareAndSwap(i1, 42, 99) || w.Load(i1) != 99 {
		t.Fatal("CAS failed")
	}
	if w.CompareAndSwap(i1, 42, 7) {
		t.Fatal("CAS with stale old must fail")
	}
	w.FreeGroup(i1)
	i3, err := w.AllocGroup()
	if err != nil {
		t.Fatal(err)
	}
	if i3 != i1 {
		t.Fatalf("expected recycled group %d, got %d", i1, i3)
	}
	if w.Load(i3) != 0 || w.Load(i3+1) != 0 {
		t.Fatal("recycled group must be zeroed")
	}
}

func TestWordAreaExhaustion(t *testing.T) {
	w := NewWordArea(2, 2)
	if _, err := w.AllocGroup(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AllocGroup(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AllocGroup(); err != ErrOutOfMemory {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(1 << 24)
	for i := 0; i < b.N; i++ {
		off, err := a.Alloc(56) // 16B key + 32B value + header
		if err != nil {
			b.Fatal(err)
		}
		a.Free(off, 56)
	}
}

func TestHugeInterior(t *testing.T) {
	if hugePageBytes&(hugePageBytes-1) != 0 {
		t.Fatalf("hugePageBytes %d is not a power of two, which the interior mask assumes", hugePageBytes)
	}
	const mb = 1 << 20
	for _, c := range []struct {
		name   string
		base   uintptr
		n      int
		lo, hi int
	}{
		{"aligned exact multiple", 8 * mb, 4 * mb, 0, 4 * mb},
		{"aligned with tail", 8 * mb, 5 * mb, 0, 4 * mb},
		{"misaligned start", 8*mb + 4096, 6 * mb, 2*mb - 4096, 6*mb - 4096},
		{"misaligned both ends", 8*mb + 1, 4 * mb, 2*mb - 1, 4*mb - 1},
		{"misaligned exact multiple", 3 * mb, 8 * mb, mb, 7 * mb},
		{"at the floor", 2 * mb, 4 * mb, 0, 4 * mb},
		{"below the floor, aligned", 8 * mb, 4*mb - 1, 0, 0},
		{"below the floor, misaligned", 8*mb + 4096, 3 * mb, 0, 0},
		{"empty", 0, 0, 0, 0},
	} {
		lo, hi := hugeInterior(c.base, c.n)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%s: hugeInterior(%#x, %d) = [%d, %d), want [%d, %d)", c.name, c.base, c.n, lo, hi, c.lo, c.hi)
		}
	}
}

// TestAdviseHugePages pins the floor: nothing below 4 MB is advised. The
// large calls assert nothing, because whether the kernel accepts the advice
// depends on the host's THP setting; under -race they run checkptr over the
// byte view of each element type the shard's regions use.
func TestAdviseHugePages(t *testing.T) {
	if AdviseHugePages([]byte(nil)) || AdviseHugePages(make([]byte, hugeMinBytes-1)) ||
		AdviseHugePages(make([]uint64, hugeMinBytes/8-1)) {
		t.Fatal("a region below the 4 MB floor was advised")
	}
	AdviseHugePages(make([]byte, 2*hugeMinBytes+3))
	AdviseHugePages(make([]uint64, hugeMinBytes/8))
	NewWordArea(hugeMinBytes/8, 1)
}
