package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hydradb/internal/arena"
	"hydradb/internal/lease"
	"hydradb/internal/stats"
	"hydradb/internal/testutil"
	"hydradb/internal/timing"
)

func testStore(t testing.TB, clk timing.Clock) *Store {
	t.Helper()
	return NewStore(Config{
		ArenaBytes: 1 << 20,
		MaxItems:   4096,
		Clock:      clk,
	})
}

func TestItemCodecRoundTrip(t *testing.T) {
	f := func(key, val []byte) bool {
		if len(key) == 0 || len(key) > 100 || len(val) > 1000 {
			return true
		}
		buf := make([]byte, ItemSize(len(key), len(val)))
		EncodeItem(buf, key, val)
		k, v, ok := DecodeItem(buf)
		return ok && bytes.Equal(k, key) && bytes.Equal(v, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeItemMalformed(t *testing.T) {
	if _, _, ok := DecodeItem(nil); ok {
		t.Fatal("nil buffer decoded")
	}
	if _, _, ok := DecodeItem(make([]byte, 4)); ok {
		t.Fatal("short buffer decoded")
	}
	// Zeroed area (freshly reclaimed memory) must not decode: keyLen == 0.
	if _, _, ok := DecodeItem(make([]byte, 64)); ok {
		t.Fatal("zeroed buffer decoded")
	}
	// Lengths exceeding the buffer must not decode.
	buf := make([]byte, 16)
	EncodeItem(buf, []byte("k"), []byte("v"))
	buf[2] = 0xFF // inflate valLen
	if _, _, ok := DecodeItem(buf); ok {
		t.Fatal("overflowing lengths decoded")
	}
}

func TestPutGetDelete(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)

	if _, ok := s.Get([]byte("missing")); ok {
		t.Fatal("get of missing key succeeded")
	}
	res, existed, err := s.Put([]byte("alpha"), []byte("one"))
	if err != nil || existed {
		t.Fatalf("put: existed=%v err=%v", existed, err)
	}
	if res.Ptr.Zero() {
		t.Fatal("put returned zero remote pointer")
	}
	got, ok := s.Get([]byte("alpha"))
	if !ok || string(got.Value) != "one" {
		t.Fatalf("get: %q ok=%v", got.Value, ok)
	}
	if !s.Delete([]byte("alpha")) {
		t.Fatal("delete failed")
	}
	if s.Delete([]byte("alpha")) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := s.Get([]byte("alpha")); ok {
		t.Fatal("get after delete succeeded")
	}
}

func TestOutOfPlaceUpdate(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)

	res1, _, err := s.Put([]byte("k"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	res2, existed, err := s.Put([]byte("k"), []byte("v2"))
	if err != nil || !existed {
		t.Fatalf("update: existed=%v err=%v", existed, err)
	}
	if res1.Ptr.DataOff == res2.Ptr.DataOff && res1.Ptr.MetaIdx == res2.Ptr.MetaIdx {
		t.Fatal("update was in-place")
	}
	// Old guardian flipped; new guardian live.
	if s.Guardian(res1.Ptr.MetaIdx) != GuardianDead {
		t.Fatal("old guardian not flipped")
	}
	if s.Guardian(res2.Ptr.MetaIdx) != GuardianLive {
		t.Fatal("new guardian not live")
	}
	// A stale RDMA Read through the old pointer still sees intact bytes
	// (lease not expired) but a dead guardian.
	buf := make([]byte, res1.Ptr.DataLen)
	n, guard, _, err := s.ReadAt(res1.Ptr, buf)
	if err != nil || n != int(res1.Ptr.DataLen) {
		t.Fatalf("stale read: n=%d err=%v", n, err)
	}
	if guard != GuardianDead {
		t.Fatal("stale read did not observe dead guardian")
	}
	k, v, ok := DecodeItem(buf)
	if !ok || string(k) != "k" || string(v) != "v1" {
		t.Fatalf("stale read corrupted: %q %q ok=%v", k, v, ok)
	}
	// Fresh read through the new pointer sees v2 + live guardian.
	buf2 := make([]byte, res2.Ptr.DataLen)
	_, guard2, _ := testutil.Must3(s.ReadAt(res2.Ptr, buf2))
	if guard2 != GuardianLive {
		t.Fatal("fresh read saw dead guardian")
	}
	_, v2, _ := DecodeItem(buf2)
	if string(v2) != "v2" {
		t.Fatalf("fresh read value %q", v2)
	}
}

func TestReclaimAfterLeaseExpiry(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)
	res1, _ := testutil.Must2(s.Put([]byte("k"), []byte("v1")))
	testutil.Must2(s.Put([]byte("k"), []byte("v2")))
	if s.PendingReclaims() != 1 {
		t.Fatalf("pending reclaims = %d", s.PendingReclaims())
	}
	// Before expiry nothing is reclaimed.
	if n := s.ReclaimDue(); n != 0 {
		t.Fatalf("premature reclaim of %d items", n)
	}
	// Advance past lease + grace.
	clk.Advance(int64(lease.DefaultPolicy().BaseTermNs*70 + lease.DefaultPolicy().GraceNs))
	if n := s.ReclaimDue(); n != 1 {
		t.Fatalf("reclaimed %d items, want 1", n)
	}
	if s.PendingReclaims() != 0 {
		t.Fatal("reclaim queue not drained")
	}
	// The old area is zeroed: a stale read now fails validation at decode.
	buf := make([]byte, res1.Ptr.DataLen)
	testutil.Must3(s.ReadAt(res1.Ptr, buf))
	if _, _, ok := DecodeItem(buf); ok {
		t.Fatal("reclaimed area still decodes")
	}
}

func TestLeaseExtensionAndPopularity(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	s := testStore(t, clk)
	testutil.Must2(s.Put([]byte("hot"), []byte("v")))

	res, _ := s.Get([]byte("hot"))
	first := res.LeaseExp
	if first <= clk.Now() {
		t.Fatal("lease not in the future")
	}
	// Hammer the key: term must grow towards 64s.
	for i := 0; i < 200; i++ {
		res, _ = s.Get([]byte("hot"))
	}
	term := res.LeaseExp - clk.Now()
	if term != 64e9 {
		t.Fatalf("hot key lease term = %d, want 64s", term)
	}
	// A cold key gets the base term.
	testutil.Must2(s.Put([]byte("cold"), []byte("v")))
	resC, _ := s.Get([]byte("cold"))
	if got := resC.LeaseExp - clk.Now(); got != 2e9 {
		// one access => level(1)=0 is base 1s... but Put also touches, so 2 accesses.
		if got != 1e9 && got != 2e9 {
			t.Fatalf("cold key lease term = %d", got)
		}
	}
}

func TestPopularityDecay(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)
	testutil.Must2(s.Put([]byte("k"), []byte("v")))
	for i := 0; i < 300; i++ {
		s.Get([]byte("k"))
	}
	res, _ := s.Get([]byte("k"))
	if res.LeaseExp-clk.Now() != 64e9 {
		t.Fatal("key did not become hot")
	}
	// After many decay epochs the popularity collapses back to base-ish.
	clk.Advance(40 * 10e9) // 40 epochs of 10s
	res, _ = s.Get([]byte("k"))
	if term := res.LeaseExp - clk.Now(); term > 2e9 {
		t.Fatalf("popularity did not decay: term=%d", term)
	}
}

func TestLeaseEpochWraparoundDecays(t *testing.T) {
	// Regression: popularity must keep decaying when the uint32 decay-epoch
	// counter wraps. With 1 ms epochs the counter wraps after ~49.7 days of
	// server uptime; the skipped decay froze every key's popularity — and
	// thus its lease term — at the pre-wrap value for another 49.7 days.
	const epochNs = 1e6
	start := (int64(^uint32(0)) - 1) * epochNs // two epochs short of the wrap
	clk := timing.NewManualClock(start)
	s := NewStore(Config{
		ArenaBytes: 1 << 20,
		MaxItems:   64,
		Clock:      clk,
		Policy: lease.Policy{
			BaseTermNs:   1e9,
			MaxShift:     6,
			GraceNs:      100e6,
			DecayEpochNs: epochNs,
		},
	})
	testutil.Must2(s.Put([]byte("k"), []byte("v")))
	for i := 0; i < 300; i++ {
		s.Get([]byte("k"))
	}
	res, _ := s.Get([]byte("k"))
	if res.LeaseExp-clk.Now() != 64e9 {
		t.Fatal("key did not become hot before the wrap")
	}
	// Idle across the wrap: far more than 32 decay epochs and past the hot
	// lease's expiry, so the next grant reflects the decayed popularity.
	clk.Advance(100e9)
	res, _ = s.Get([]byte("k"))
	if term := res.LeaseExp - clk.Now(); term != 1e9 {
		t.Fatalf("popularity survived the epoch wraparound: term=%d, want base 1s", term)
	}
}

func TestRenewLease(t *testing.T) {
	clk := timing.NewManualClock(0)
	var ctr stats.OpCounters
	s := NewStore(Config{ArenaBytes: 1 << 20, MaxItems: 1024, Clock: clk, Counters: &ctr})
	testutil.Must2(s.Put([]byte("k"), []byte("v")))
	put, _ := s.Get([]byte("k"))
	res, ok := s.RenewLease([]byte("k"))
	if !ok || res.LeaseExp <= clk.Now() {
		t.Fatalf("renew: exp=%d ok=%v", res.LeaseExp, ok)
	}
	if res.Ptr != put.Ptr || res.LeaseExp != s.Lease(res.Ptr.MetaIdx) {
		t.Fatalf("renew named %v with lease %d; the live item is %v with lease word %d",
			res.Ptr, res.LeaseExp, put.Ptr, s.Lease(put.Ptr.MetaIdx))
	}
	if _, ok := s.RenewLease([]byte("nope")); ok {
		t.Fatal("renewal of absent key succeeded")
	}
	s.Delete([]byte("k"))
	if _, ok := s.RenewLease([]byte("k")); ok {
		t.Fatal("renewal of deleted key succeeded")
	}
	snap := ctr.Snapshot()
	if snap.LeaseRenewals != 1 || snap.LeaseRejects != 2 {
		t.Fatalf("counters: %+v", snap)
	}
}

func TestStoreFullAndReclaimRetry(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := NewStore(Config{ArenaBytes: 4096, MaxItems: 8, Clock: clk})
	var keys [][]byte
	for i := 0; ; i++ {
		key := []byte(fmt.Sprintf("key%02d", i))
		_, _, err := s.Put(key, bytes.Repeat([]byte("x"), 200))
		if err == ErrStoreFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		if i > 100 {
			t.Fatal("store never filled")
		}
	}
	if len(keys) == 0 {
		t.Fatal("no keys inserted before exhaustion")
	}
	// Delete one and expire its lease: the next Put must succeed through the
	// internal reclaim-retry path.
	s.Delete(keys[0])
	clk.Advance(100e9)
	if _, _, err := s.Put([]byte("fresh"), bytes.Repeat([]byte("y"), 200)); err != nil {
		t.Fatalf("put after reclaimable space available: %v", err)
	}
}

func TestStoreNeverBreaksLeaseForAllocation(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := NewStore(Config{ArenaBytes: 2048, MaxItems: 8, Clock: clk})
	testutil.Must2(s.Put([]byte("a"), bytes.Repeat([]byte("x"), 400)))
	testutil.Must2(s.Put([]byte("a"), bytes.Repeat([]byte("y"), 400))) // old area now pending, lease alive
	// Fill the rest.
	for i := 0; ; i++ {
		_, _, err := s.Put([]byte(fmt.Sprintf("f%d", i)), bytes.Repeat([]byte("z"), 400))
		if err != nil {
			break
		}
		if i > 20 {
			t.Fatal("never filled")
		}
	}
	// The pending entry's lease has NOT expired; allocation must fail rather
	// than recycle leased memory.
	if _, _, err := s.Put([]byte("big"), bytes.Repeat([]byte("w"), 400)); err != ErrStoreFull {
		t.Fatalf("expected ErrStoreFull, got %v", err)
	}
	if s.PendingReclaims() == 0 {
		t.Fatal("expected a pending reclaim to still be queued")
	}
}

func TestRangeVisitsLiveItems(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)
	want := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key%02d", i), fmt.Sprintf("val%02d", i)
		testutil.Must2(s.Put([]byte(k), []byte(v)))
		want[k] = v
	}
	s.Delete([]byte("key00"))
	delete(want, "key00")
	got := map[string]string{}
	s.Range(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range saw %d items, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("range mismatch for %s: %q != %q", k, got[k], v)
		}
	}
}

func TestReadAtOutOfRange(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)
	bad := RemotePtr{DataOff: 1 << 30, DataLen: 64, MetaIdx: 0}
	if _, _, _, err := s.ReadAt(bad, make([]byte, 64)); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	bad2 := RemotePtr{DataOff: 0, DataLen: 64, MetaIdx: 1 << 30}
	if _, _, _, err := s.ReadAt(bad2, make([]byte, 64)); err == nil {
		t.Fatal("out-of-range meta read succeeded")
	}
}

func TestKeyValidation(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)
	if _, _, err := s.Put(nil, []byte("v")); err != ErrKeyTooLarge {
		t.Fatalf("empty key: %v", err)
	}
	if _, _, err := s.Put(bytes.Repeat([]byte("k"), MaxKeyLen+1), []byte("v")); err != ErrKeyTooLarge {
		t.Fatal("oversized key accepted")
	}
	// The longest key must fit the item's 16-bit key length and read back.
	longest := bytes.Repeat([]byte("k"), MaxKeyLen)
	if _, _, err := s.Put(longest, []byte("v")); err != nil {
		t.Fatalf("MaxKeyLen key: %v", err)
	}
	if res, ok := s.Get(longest); !ok || string(res.Value) != "v" {
		t.Fatalf("MaxKeyLen key read back %q, found=%v", res.Value, ok)
	}
}

func TestPutRejectsItemAboveLargestClass(t *testing.T) {
	if got := ItemSize(1, MaxValLen); got != arena.MaxAlloc() {
		t.Fatalf("ItemSize(1, MaxValLen) = %d, want the largest arena class %d", got, arena.MaxAlloc())
	}
	clk := timing.NewManualClock(0)
	var ctr stats.OpCounters
	s := NewStore(Config{ArenaBytes: 1 << 20, MaxItems: 64, Clock: clk, Counters: &ctr})
	// Leave a reclaim due, so a pointless reclamation pass would show.
	testutil.Must2(s.Put([]byte("k"), []byte("v1")))
	testutil.Must2(s.Put([]byte("k"), []byte("v2")))
	clk.Advance(100e9)

	for _, c := range []struct {
		key    []byte
		valLen int
	}{
		{[]byte("k"), 9 << 20},
		{[]byte("k"), MaxValLen + 1},
		{[]byte("kk"), MaxValLen},
	} {
		if _, _, err := s.Put(c.key, make([]byte, c.valLen)); err != ErrValTooLarge {
			t.Fatalf("Put(%q, %d B) = %v, want ErrValTooLarge", c.key, c.valLen, err)
		}
	}
	if n := ctr.Snapshot().Reclaims; n != 0 {
		t.Fatalf("rejecting an oversized value ran a reclamation pass (%d reclaimed)", n)
	}
	if s.PendingReclaims() != 1 {
		t.Fatalf("pending reclaims = %d, want 1", s.PendingReclaims())
	}
}

// TestWordAreaBoundsItems pins MaxItems as the item bound: every live or
// pending-reclaim item holds one word group, and nothing else does.
func TestWordAreaBoundsItems(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := NewStore(Config{ArenaBytes: 1 << 20, MaxItems: 8, Clock: clk})
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%d", i)) }
	for i := 0; i < 8; i++ {
		testutil.Must2(s.Put(key(i), []byte("v")))
	}
	if _, _, err := s.Put(key(8), []byte("v")); err != ErrStoreFull {
		t.Fatalf("9th distinct insert: %v, want ErrStoreFull", err)
	}
	if _, _, err := s.Put(key(0), []byte("v'")); err != ErrStoreFull {
		t.Fatalf("update with every group taken: %v, want ErrStoreFull", err)
	}

	// Two deletes free two groups once their leases run out; the next
	// insert collects them through the reclaim-retry path.
	s.Delete(key(0))
	s.Delete(key(1))
	clk.Advance(100e9)
	testutil.Must2(s.Put(key(8), []byte("v")))
	if s.PendingReclaims() != 0 {
		t.Fatalf("pending reclaims = %d after the retry pass", s.PendingReclaims())
	}
	// An update takes the last free group and pins the old one under its
	// lease, so the area is full again until that lease expires.
	testutil.Must2(s.Put(key(8), []byte("v'")))
	if _, _, err := s.Put(key(9), []byte("v")); err != ErrStoreFull {
		t.Fatalf("insert while the old version is leased: %v, want ErrStoreFull", err)
	}
	clk.Advance(100e9)
	if n := s.ReclaimDue(); n != 1 {
		t.Fatalf("reclaimed %d items, want 1", n)
	}
	testutil.Must2(s.Put(key(9), []byte("v")))
	if got := s.Len() + s.PendingReclaims(); got != 8 {
		t.Fatalf("live + pending = %d, want 8", got)
	}
	if res, ok := s.Get(key(8)); !ok || string(res.Value) != "v'" {
		t.Fatalf("updated key read back %q, found=%v", res.Value, ok)
	}
}

// TestRandomizedStoreAgainstModel drives a mixed workload with time advance
// and compares against a map model, with reclamation active throughout.
func TestRandomizedStoreAgainstModel(t *testing.T) {
	const maxItems = 2048
	clk := timing.NewManualClock(0)
	s := NewStore(Config{ArenaBytes: 1 << 20, MaxItems: maxItems, Clock: clk})
	model := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	checkPtr := func(step int, p RemotePtr) {
		if p.MetaIdx%MetaWordsPerItem != 0 {
			t.Fatalf("step %d: MetaIdx %d is not the start of a word group", step, p.MetaIdx)
		}
	}
	for step := 0; step < 30000; step++ {
		if n := s.Len() + s.PendingReclaims(); n > maxItems {
			t.Fatalf("step %d: live %d + pending %d exceeds MaxItems", step, s.Len(), s.PendingReclaims())
		}
		key := fmt.Sprintf("user%03d", rng.Intn(300))
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			val := fmt.Sprintf("v%d", step)
			res, existed, err := s.Put([]byte(key), []byte(val))
			if err != nil {
				t.Fatalf("step %d put: %v", step, err)
			}
			checkPtr(step, res.Ptr)
			if _, inModel := model[key]; inModel != existed {
				t.Fatalf("step %d put existed=%v, model=%v", step, existed, !existed)
			}
			model[key] = val
		case 4, 5, 6, 7:
			res, ok := s.Get([]byte(key))
			mv, mok := model[key]
			if ok != mok || (ok && string(res.Value) != mv) {
				t.Fatalf("step %d get %s: (%q,%v) model (%q,%v)", step, key, res.Value, ok, mv, mok)
			}
			if ok {
				checkPtr(step, res.Ptr)
			}
		case 8:
			ok := s.Delete([]byte(key))
			_, mok := model[key]
			if ok != mok {
				t.Fatalf("step %d delete %s: %v model %v", step, key, ok, mok)
			}
			delete(model, key)
		default:
			clk.Advance(rng.Int63n(3e9))
			s.ReclaimDue()
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("final len %d != model %d", s.Len(), len(model))
	}
	// Drain all reclaims and ensure nothing live was harmed.
	clk.Advance(200e9)
	s.ReclaimDue()
	for k, v := range model {
		res, ok := s.Get([]byte(k))
		if !ok || string(res.Value) != v {
			t.Fatalf("post-reclaim get %s: (%q,%v) want %q", k, res.Value, ok, v)
		}
	}
	if s.PendingReclaims() != 0 {
		t.Fatalf("reclaims left: %d", s.PendingReclaims())
	}
}

func TestNextReclaimDue(t *testing.T) {
	clk := timing.NewManualClock(0)
	s := testStore(t, clk)
	if _, ok := s.NextReclaimDue(); ok {
		t.Fatal("empty queue reported a due time")
	}
	testutil.Must2(s.Put([]byte("k"), []byte("v1")))
	testutil.Must2(s.Put([]byte("k"), []byte("v2")))
	due, ok := s.NextReclaimDue()
	if !ok || due <= clk.Now() {
		t.Fatalf("due=%d ok=%v", due, ok)
	}
}

func BenchmarkStorePut(b *testing.B) {
	clk := timing.NewManualClock(0)
	s := NewStore(Config{ArenaBytes: 256 << 20, MaxItems: 1 << 21, Clock: clk})
	key := make([]byte, 16)
	val := bytes.Repeat([]byte("v"), 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(key, fmt.Sprintf("user%012d", i%(1<<20)))
		if _, _, err := s.Put(key, val); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 0 {
			clk.Advance(1e9)
			s.ReclaimDue()
		}
	}
}

func BenchmarkStoreGet(b *testing.B) {
	clk := timing.NewManualClock(0)
	s := NewStore(Config{ArenaBytes: 64 << 20, MaxItems: 1 << 18, Clock: clk})
	const n = 1 << 16
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
		testutil.Must2(s.Put(keys[i], bytes.Repeat([]byte("v"), 32)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i&(n-1)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkStoreGetUniform reads 1 M items (16 B keys, 32 B values) in a
// seeded random order, so each GET misses cache on the bucket, the word
// group and the item bytes: the read_msg shape, unlike BenchmarkStoreGet,
// whose 64 k in-order keys stay cache-resident.
func BenchmarkStoreGetUniform(b *testing.B) {
	const n, keyLen = 1 << 20, 16
	clk := timing.NewManualClock(0)
	s := NewStore(Config{ArenaBytes: n * 64, MaxItems: n, Clock: clk})
	val := bytes.Repeat([]byte("v"), 32)
	var key []byte
	for i := 0; i < n; i++ {
		key = fmt.Appendf(key[:0], "user%012d", i)
		testutil.Must2(s.Put(key, val))
	}
	// Lay the keys out in read order, so walking them streams and only the
	// store's own accesses are random.
	keys := make([]byte, 0, n*keyLen)
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		keys = fmt.Appendf(keys, "user%012d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n * keyLen
		if _, ok := s.Get(keys[j : j+keyLen]); !ok {
			b.Fatal("miss")
		}
	}
}
