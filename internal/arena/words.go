package arena

import "sync/atomic"

// WordArea is the 8-byte-aligned metadata companion of a shard's byte region.
//
// In the paper the guardian word and lease timestamp live inline at the end
// of each key-value area and are fetched by the same RDMA Read (§4.2.3). Go's
// memory model forbids mixing plain copies with concurrent atomic stores over
// the same bytes, so the simulated fabric keeps these words in a parallel
// atomic array of the same memory region; a simulated RDMA Read returns
// payload bytes and named words in one operation with a single latency
// charge (see DESIGN.md §2).
//
// Words are allocated in fixed-size groups (an item's guardian, lease,
// location and popularity; ring indicators for replication logs).
type WordArea struct {
	words []atomic.Uint64 // hydralint:region the named-word companion area
	free  []int           // free group start indices
	bump  int
	group int

	// validate, when set (hydradebug sanitizers), vets word values crossing
	// the simulated fabric; see SetValidator.
	validate func(idx int, v uint64)
}

// NewWordArea creates an area of capacity word groups, each groupSize words.
func NewWordArea(capacity, groupSize int) *WordArea {
	if capacity <= 0 || groupSize <= 0 {
		panic("arena: word area capacity and group size must be positive")
	}
	w := &WordArea{
		words: make([]atomic.Uint64, capacity*groupSize),
		group: groupSize,
	}
	AdviseHugePages(w.words)
	return w
}

// AllocGroup reserves one group and returns the index of its first word.
// Words in a fresh group are zeroed.
//
// hydralint:offset-source
func (w *WordArea) AllocGroup() (int, error) {
	if n := len(w.free); n > 0 {
		idx := w.free[n-1]
		w.free = w.free[:n-1]
		for i := 0; i < w.group; i++ {
			w.words[idx+i].Store(0)
		}
		return idx, nil
	}
	if w.bump+w.group > len(w.words) {
		return 0, ErrOutOfMemory
	}
	idx := w.bump
	w.bump += w.group
	return idx, nil
}

// FreeGroup recycles the group starting at idx.
func (w *WordArea) FreeGroup(idx int) {
	w.free = append(w.free, idx)
}

// Load atomically reads word idx.
func (w *WordArea) Load(idx int) uint64 {
	return w.words[idx].Load()
}

// Store atomically writes word idx.
func (w *WordArea) Store(idx int, v uint64) {
	w.words[idx].Store(v)
}

// CompareAndSwap performs an atomic CAS on word idx.
func (w *WordArea) CompareAndSwap(idx int, old, new uint64) bool {
	return w.words[idx].CompareAndSwap(old, new)
}

// SetValidator installs fn as the area's word validator. The simulated
// fabric calls Validate with every word value a one-sided operation loads
// from or stores into this area, letting the area's owner panic on values
// that violate its encoding (e.g. a guardian word that is neither live nor
// dead — a torn or misdirected write). Only the hydradebug sanitizers
// install validators; the fabric skips the call entirely otherwise.
func (w *WordArea) SetValidator(fn func(idx int, v uint64)) { w.validate = fn }

// Validate runs the installed validator, if any, against word idx holding v.
func (w *WordArea) Validate(idx int, v uint64) {
	if w.validate != nil {
		w.validate(idx, v)
	}
}

// Len reports the total number of words.
func (w *WordArea) Len() int { return len(w.words) }

// GroupSize reports the words per group.
func (w *WordArea) GroupSize() int { return w.group }
