package kv

import (
	"bytes"
	"fmt"

	"hydradb/internal/arena"
	"hydradb/internal/hashtable"
	"hydradb/internal/hashx"
	"hydradb/internal/invariant"
	"hydradb/internal/lease"
	"hydradb/internal/stats"
	"hydradb/internal/timing"
)

// Config sizes a Store.
type Config struct {
	// ArenaBytes is the byte capacity of the item region.
	ArenaBytes int
	// MaxItems bounds live + pending-reclaim items: it sizes the word
	// area, one group per item.
	MaxItems int
	// Buckets is the main-branch size of the hash table; defaults to
	// MaxItems/4 (≈4 entries across 7 slots).
	Buckets int
	// Policy is the lease policy; zero value selects lease.DefaultPolicy.
	Policy lease.Policy
	// Clock supplies time; required.
	Clock timing.Clock
	// Counters, when non-nil, receives operation accounting.
	Counters *stats.OpCounters
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.ArenaBytes == 0 {
		cfg.ArenaBytes = 64 << 20
	}
	if cfg.MaxItems == 0 {
		cfg.MaxItems = 1 << 20
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = cfg.MaxItems / 4
		if cfg.Buckets < 8 {
			cfg.Buckets = 8
		}
	}
	if cfg.Policy == (lease.Policy{}) {
		cfg.Policy = lease.DefaultPolicy()
	}
	if cfg.Clock == nil {
		panic("kv: Config.Clock is required")
	}
	if cfg.Counters == nil {
		cfg.Counters = &stats.OpCounters{}
	}
	return cfg
}

// Word offsets within an item's group (see MetaWordsPerItem); the guardian
// is word 0. Location and popularity are owner-only.
const (
	leaseWord = 1
	locWord   = 2 // dataOff<<32 | dataLen
	popWord   = 3 // access<<32 | epoch
)

// refOf and metaOf convert between a hash-table reference and the first word
// of the item's group. References are 1-based.
func refOf(meta int) uint64 { return uint64(meta/MetaWordsPerItem) + 1 }
func metaOf(ref uint64) int { return int(ref-1) * MetaWordsPerItem }

type reclaimEntry struct {
	due  int64
	meta int
}

// Store is the single-shard key-value store.
type Store struct {
	arena *arena.Arena
	words *arena.WordArea
	table *hashtable.Table

	reclaim reclaimHeap

	probeKey []byte
	match    hashtable.MatchFunc

	clock  timing.Clock
	policy lease.Policy
	ctr    *stats.OpCounters
}

// NewStore creates a store from cfg.
func NewStore(cfg Config) *Store {
	c := cfg.withDefaults()
	s := &Store{
		arena:  arena.New(c.ArenaBytes),
		words:  arena.NewWordArea(c.MaxItems, MetaWordsPerItem),
		table:  hashtable.New(c.Buckets),
		clock:  c.Clock,
		policy: c.Policy,
		ctr:    c.Counters,
	}
	s.match = func(ref uint64) bool {
		k, _, ok := DecodeItem(s.itemBytes(s.ptr(metaOf(ref))))
		return ok && bytes.Equal(k, s.probeKey)
	}
	if invariant.Enabled {
		// Guardian words occupy the first slot of every item word group and
		// only ever hold GuardianLive, GuardianDead, or zero (fresh group).
		// Any other value crossing the fabric is a torn or misdirected write.
		s.words.SetValidator(func(idx int, v uint64) {
			if idx%MetaWordsPerItem == 0 && v != GuardianLive && v != GuardianDead {
				panic(fmt.Sprintf("kv: guardian word %d holds invalid value %#x", idx, v))
			}
		})
	}
	return s
}

// Len reports the number of live items.
func (s *Store) Len() int { return s.table.Len() }

// PendingReclaims reports detached items waiting for lease expiry.
func (s *Store) PendingReclaims() int { return len(s.reclaim) }

// ArenaLive reports allocated arena bytes (including pending reclaims).
func (s *Store) ArenaLive() int { return s.arena.Live() }

// Table exposes the hash table for instrumentation (benchmarks only).
func (s *Store) Table() *hashtable.Table { return s.table }

// ArenaData exposes the raw region for NIC registration.
func (s *Store) ArenaData() []byte { return s.arena.Data() }

// Words exposes the metadata word area for NIC registration.
func (s *Store) Words() *arena.WordArea { return s.words }

// ptr reads the location word of the group at meta as the item's remote
// pointer.
func (s *Store) ptr(meta int) RemotePtr {
	loc := s.words.Load(meta + locWord)
	return RemotePtr{DataOff: uint32(loc >> 32), DataLen: uint32(loc), MetaIdx: uint32(meta)}
}

// itemBytes returns the arena bytes of a live item.
func (s *Store) itemBytes(p RemotePtr) []byte { return s.arena.Bytes(p.DataOff, int(p.DataLen)) }

// touch counts an access on top of popularity pop, stores the result in the
// item's popularity word, renews its lease and returns the lease expiry.
// Popularity belongs to the key, so an update passes the replaced item's
// word. touch is the one writer of a published item's words
// (lease.RenewalSpec).
func (s *Store) touch(meta int, pop uint64, now int64) int64 {
	ep := s.policy.Epoch(now)
	access := lease.Decay(uint32(pop>>32), uint32(pop), ep)
	if access < ^uint32(0) {
		access++
	}
	s.words.Store(meta+popWord, uint64(access)<<32|uint64(ep))
	cur := int64(s.words.Load(meta + leaseWord))
	exp := s.policy.Extend(cur, now, access)
	if exp != cur {
		s.words.Store(meta+leaseWord, uint64(exp))
	}
	return exp
}

// GetResult carries everything a server-aware GET returns to the client:
// the value plus the remote pointer + lease that enable future RDMA Reads.
type GetResult struct {
	Value    []byte // aliases the arena; copy before the next store mutation
	Ptr      RemotePtr
	LeaseExp int64
}

// Get performs a server-aware GET: looks the key up through the compact hash
// table, bumps popularity, extends the lease, and returns value + remote
// pointer (§4.2.2). The returned value aliases arena memory.
//
// hydralint:hotpath
func (s *Store) Get(key []byte) (GetResult, bool) {
	s.ctr.Gets.Inc()
	h := hashx.Hash(key)
	s.probeKey = key
	ref, ok := s.table.Lookup(h, s.match)
	if !ok {
		return GetResult{}, false
	}
	meta := metaOf(ref)
	exp := s.touch(meta, s.words.Load(meta+popWord), s.clock.Now())
	p := s.ptr(meta)
	_, val, _ := DecodeItem(s.itemBytes(p))
	return GetResult{Value: val, Ptr: p, LeaseExp: exp}, true
}

// Put inserts or updates a key. Updates are strictly out-of-place: a new
// area + a fresh word group are populated first, then the hash table
// slot is flipped to the new reference, then the old item's guardian is
// flipped and its area queued for reclamation at lease expiry (§4.2.3).
func (s *Store) Put(key, val []byte) (GetResult, bool, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return GetResult{}, false, ErrKeyTooLarge
	}
	size := ItemSize(len(key), len(val))
	if size > arena.MaxAlloc() {
		return GetResult{}, false, ErrValTooLarge
	}
	now := s.clock.Now()

	dataOff, metaIdx, err := s.allocItem(size)
	if err != nil {
		return GetResult{}, false, err
	}
	// Populate everything — payload bytes, then the location and lease
	// words — before the guardian store publishes the item: a remote Read
	// that wins the race against PUT must observe either no item or a fully
	// formed one (§4.2.3).
	EncodeItem(s.arena.Bytes(dataOff, size), key, val)
	s.words.Store(metaIdx+locWord, uint64(dataOff)<<32|uint64(size))
	s.words.Store(metaIdx+leaseWord, uint64(now+s.policy.Term(0)))
	s.words.Store(metaIdx, GuardianLive)

	s.probeKey = key
	oldRef, replaced, err := s.table.Insert(hashx.Hash(key), refOf(metaIdx), s.match)
	if err != nil {
		// Reference overflow cannot happen with word-area-bounded refs, but
		// roll back defensively — and retract the guardian before recycling
		// the memory, so a racing remote Read of the just-published item
		// cannot validate against a zeroed (hence Live-looking) recycled
		// group.
		s.words.Store(metaIdx, GuardianDead)
		s.arena.Free(dataOff, size)
		s.words.FreeGroup(metaIdx)
		return GetResult{}, false, err
	}
	var pop uint64
	if replaced {
		s.ctr.Updates.Inc()
		old := metaOf(oldRef)
		pop = s.words.Load(old + popWord)
		s.detach(old, now)
	} else {
		s.ctr.Inserts.Inc()
	}
	exp := s.touch(metaIdx, pop, now)
	return GetResult{Ptr: s.ptr(metaIdx), LeaseExp: exp}, replaced, nil
}

// allocItem reserves arena space and a word group, running a reclamation
// pass and retrying once when either is exhausted.
func (s *Store) allocItem(size int) (dataOff uint32, metaIdx int, err error) {
	for attempt := 0; ; attempt++ {
		dataOff, err = s.arena.Alloc(size)
		if err == nil {
			metaIdx, err = s.words.AllocGroup()
			if err == nil {
				return dataOff, metaIdx, nil
			}
			s.arena.Free(dataOff, size)
		}
		if attempt > 0 {
			return 0, 0, ErrStoreFull
		}
		// Force-expire nothing; only collect entries already due. If nothing
		// was due, give up: leases guard client RDMA Reads and must not be
		// broken to satisfy allocation.
		if s.ReclaimDue() == 0 {
			return 0, 0, ErrStoreFull
		}
	}
}

// detach flips the guardian of a replaced/deleted item and schedules its
// memory for reclamation after the lease runs out.
func (s *Store) detach(meta int, now int64) {
	s.words.Store(meta, GuardianDead)
	exp := int64(s.words.Load(meta + leaseWord))
	s.reclaim.push(reclaimEntry{due: s.policy.ReclaimAt(exp, now), meta: meta})
}

// Delete removes a key. The memory is reclaimed after lease expiry.
func (s *Store) Delete(key []byte) bool {
	s.ctr.Deletes.Inc()
	h := hashx.Hash(key)
	s.probeKey = key
	ref, ok := s.table.Delete(h, s.match)
	if !ok {
		return false
	}
	s.detach(metaOf(ref), s.clock.Now())
	return true
}

// RenewLease extends the lease of a live key (client-driven renewal,
// §4.2.3) and returns the renewed item's pointer and lease. The item is the
// key's current version, which need not be the one the caller has cached.
// It fails for absent or outdated keys, preventing outdated leases from
// being extended.
func (s *Store) RenewLease(key []byte) (GetResult, bool) {
	h := hashx.Hash(key)
	s.probeKey = key
	ref, ok := s.table.Lookup(h, s.match)
	if !ok {
		s.ctr.LeaseRejects.Inc()
		return GetResult{}, false
	}
	s.ctr.LeaseRenewals.Inc()
	meta := metaOf(ref)
	exp := s.touch(meta, s.words.Load(meta+popWord), s.clock.Now())
	return GetResult{Ptr: s.ptr(meta), LeaseExp: exp}, true
}

// ReclaimDue frees every detached item whose lease (plus grace) has expired.
// The live shard loop calls this periodically; it is the amortised
// equivalent of the paper's background reclamation thread.
func (s *Store) ReclaimDue() int {
	now := s.clock.Now()
	n := 0
	for len(s.reclaim) > 0 && s.reclaim[0].due <= now {
		e := s.reclaim.pop()
		p := s.ptr(e.meta)
		s.arena.Free(p.DataOff, int(p.DataLen))
		s.words.FreeGroup(e.meta)
		n++
	}
	if n > 0 {
		s.ctr.Reclaims.Add(int64(n))
	}
	return n
}

// NextReclaimDue reports when the earliest pending reclaim becomes due, or
// false when none is queued.
func (s *Store) NextReclaimDue() (int64, bool) {
	if len(s.reclaim) == 0 {
		return 0, false
	}
	return s.reclaim[0].due, true
}

// Range iterates over live items, passing arena-aliasing key/value views.
func (s *Store) Range(fn func(key, val []byte) bool) {
	s.table.Range(func(ref uint64) bool {
		k, v, ok := DecodeItem(s.itemBytes(s.ptr(metaOf(ref))))
		if !ok {
			return true
		}
		return fn(k, v)
	})
}

// Guardian returns the guardian word of an item by meta index — test and
// simulation hook for validating client-visible state.
func (s *Store) Guardian(metaIdx uint32) uint64 { return s.words.Load(int(metaIdx)) }

// Lease returns the lease expiry word of an item by meta index.
func (s *Store) Lease(metaIdx uint32) int64 { return int64(s.words.Load(int(metaIdx) + leaseWord)) }

// ReadAt simulates the data plane of a one-sided RDMA Read against this
// store's region: it copies the item bytes and atomically loads guardian and
// lease. The caller (fabric or DES actor) charges the latency; no shard CPU
// is involved, mirroring §4.2.2.
func (s *Store) ReadAt(p RemotePtr, dst []byte) (n int, guardian uint64, leaseExp int64, err error) {
	end := int(p.DataOff) + int(p.DataLen)
	if end > s.arena.Capacity() || int(p.MetaIdx)+leaseWord >= s.words.Len() {
		return 0, 0, 0, fmt.Errorf("kv: remote pointer out of range: %v", p)
	}
	// Slice the raw region rather than arena.Bytes: a stale remote pointer
	// may legitimately land on recycled memory (the guardian word catches
	// it), so the hydradebug use-after-free canary must not fire here.
	n = copy(dst, s.arena.Data()[p.DataOff:end])
	guardian = s.words.Load(int(p.MetaIdx))
	leaseExp = int64(s.words.Load(int(p.MetaIdx) + leaseWord))
	return n, guardian, leaseExp, nil
}

// reclaimHeap is a binary min-heap on due time.
type reclaimHeap []reclaimEntry

func (h *reclaimHeap) push(e reclaimEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].due <= (*h)[i].due {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *reclaimHeap) pop() reclaimEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].due < (*h)[smallest].due {
			smallest = l
		}
		if r < n && (*h)[r].due < (*h)[smallest].due {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}
