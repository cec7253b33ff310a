// Package arena implements the offset-addressed memory region that backs a
// hydradb shard.
//
// Each shard owns exactly one arena. The arena's byte area is registered with
// the (simulated) RDMA NIC as a memory region, so the 48-bit references the
// compact hash table stores — and the remote pointers handed to clients — are
// plain offsets into this region. Allocation is size-class segregated with
// per-class free lists, which matches the paper's out-of-place update
// discipline: updates allocate a fresh area and the old one is recycled only
// after its lease expires.
//
// A shard is single-threaded, so the arena is deliberately not synchronized;
// the zero-value is not usable, construct with New.
package arena

import (
	"errors"
	"fmt"

	"hydradb/internal/invariant"
)

// ErrOutOfMemory is returned when neither the free lists nor the bump region
// can satisfy an allocation.
var ErrOutOfMemory = errors.New("arena: out of memory")

// Allocation geometry. Size classes start at minClassBytes and every class is
// a multiple of 16, so the word groups class-rounded items occupy pack evenly
// into 64-byte cache lines instead of straddling them.
const (
	minClassBytes  = 32
	pageClassBytes = 4096    // first power-of-two-doubling class
	maxClassBytes  = 8 << 20 // largest class: §2.1's 4 MB input chunks fit
	cacheLineBytes = 64
)

// classSizes are the allocation size classes in bytes. The 16 B key + 32 B
// value items the paper evaluates land in the first classes; the tail classes
// cover the 4 MB input chunks of §2.1's MapReduce cache (the largest values
// a test stores are usecase_test.go's 60 KB).
//
// Class sizes are positive and bounded by maxClassBytes.
var classSizes = buildClasses()

func buildClasses() []int {
	var cs []int
	for s := minClassBytes; s < pageClassBytes; {
		cs = append(cs, s)
		// 32,48,64,96,128,... alternate +50% / +33% growth keeps internal
		// fragmentation below ~34%.
		if s%3 == 0 {
			s = s * 4 / 3
		} else {
			s = s * 3 / 2
		}
	}
	for s := pageClassBytes; s <= maxClassBytes; s *= 2 {
		cs = append(cs, s)
	}
	return cs
}

// classOf returns the index of the smallest class holding n bytes, or -1.
func classOf(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// Arena allocates offsets out of a single contiguous byte region.
type Arena struct {
	data   []byte  // hydralint:region the NIC-registered backing store
	bump   int     // next unallocated byte in the virgin region
	free   [][]int // per-class free offsets
	live   int     // bytes handed out (class-rounded)
	allocs int64
	frees  int64
	dbg    invariant.AllocTracker // armed only under -tags hydradebug
}

// New creates an arena of the given capacity in bytes.
func New(capacity int) *Arena {
	if capacity <= 0 {
		panic("arena: capacity must be positive")
	}
	a := &Arena{
		data: make([]byte, capacity),
		free: make([][]int, len(classSizes)),
	}
	AdviseHugePages(a.data)
	return a
}

// Capacity reports the total byte capacity.
func (a *Arena) Capacity() int { return len(a.data) }

// Live reports bytes currently allocated (rounded up to class sizes).
func (a *Arena) Live() int { return a.live }

// Allocs and Frees report cumulative operation counts.
func (a *Arena) Allocs() int64 { return a.allocs }

// Frees reports cumulative free operations.
func (a *Arena) Frees() int64 { return a.frees }

// Alloc reserves n bytes and returns the region offset. The usable capacity
// is the size class, at least n.
//
// hydralint:offset-source
func (a *Arena) Alloc(n int) (uint32, error) {
	if n <= 0 {
		return 0, fmt.Errorf("arena: invalid allocation size %d", n)
	}
	ci := classOf(n)
	if ci < 0 {
		return 0, fmt.Errorf("arena: allocation %d exceeds max class %d", n, classSizes[len(classSizes)-1])
	}
	size := classSizes[ci]
	if fl := a.free[ci]; len(fl) > 0 {
		off := fl[len(fl)-1]
		a.free[ci] = fl[:len(fl)-1]
		a.live += size
		a.allocs++
		if invariant.Enabled {
			a.dbg.OnAlloc(uint32(off), size)
		}
		return uint32(off), nil
	}
	if a.bump+size > len(a.data) {
		return 0, ErrOutOfMemory
	}
	off := a.bump
	a.bump += size
	a.live += size
	a.allocs++
	if invariant.Enabled {
		a.dbg.OnAlloc(uint32(off), size)
	}
	return uint32(off), nil
}

// Free returns the allocation at off (originally requested with size n) to
// its class free list. The bytes are zeroed so a stale RDMA Read of a
// recycled area observes cleared data rather than a ghost of the old item.
func (a *Arena) Free(off uint32, n int) {
	ci := classOf(n)
	if ci < 0 {
		panic(fmt.Sprintf("arena: free of oversized allocation %d", n))
	}
	size := classSizes[ci]
	if int(off)+size > len(a.data) {
		panic(fmt.Sprintf("arena: free out of range off=%d size=%d", off, size))
	}
	if invariant.Enabled {
		a.dbg.OnFree(off, size)
	}
	clear(a.data[off : int(off)+size])
	a.free[ci] = append(a.free[ci], int(off))
	a.live -= size
	a.frees++
}

// Bytes returns the n-byte window at off. The window aliases the region; the
// caller must respect the single-writer discipline. Under -tags hydradebug
// the window must lie within a live allocation — one-sided remote reads,
// which may legitimately observe recycled memory, go through Data instead.
// hydralint:region-view
func (a *Arena) Bytes(off uint32, n int) []byte {
	if invariant.Enabled {
		a.dbg.CheckLive(off, n)
	}
	return a.data[off : int(off)+n : int(off)+n]
}

// Data exposes the whole region for NIC registration.
//
// hydralint:region-view
func (a *Arena) Data() []byte { return a.data }

// ClassSize reports the rounded capacity an allocation of n bytes occupies.
func ClassSize(n int) int {
	ci := classOf(n)
	if ci < 0 {
		return -1
	}
	return classSizes[ci]
}

// MaxAlloc reports the largest supported allocation.
func MaxAlloc() int { return classSizes[len(classSizes)-1] }
