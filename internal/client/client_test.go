package client

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hydradb/internal/consistent"
	"hydradb/internal/kv"
	"hydradb/internal/rdma"
	"hydradb/internal/shard"
	"hydradb/internal/testutil"
	"hydradb/internal/timing"
)

// liveEnv is a one-shard, live-mode mini cluster.
type liveEnv struct {
	fabric *rdma.Fabric
	clk    *timing.ManualClock
	shard  *shard.Shard
	cliNIC *rdma.NIC
	table  *RouteTable
	stopFn func()
}

func newLiveEnv(t testing.TB, sendRecv bool) *liveEnv {
	t.Helper()
	clk := timing.NewManualClock(1e9)
	f := rdma.NewFabric(rdma.Config{})
	srvNIC := f.NewNIC("server")
	cliNIC := f.NewNIC("clients")
	sh := shard.New(shard.Config{
		ID:  1,
		NIC: srvNIC,
		Store: kv.Config{
			ArenaBytes: 4 << 20,
			MaxItems:   8192,
			Clock:      clk,
		},
	})
	ring, err := consistent.Build([]uint32{1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	env := &liveEnv{
		fabric: f, clk: clk, shard: sh, cliNIC: cliNIC,
		table: &RouteTable{Epoch: 0, Ring: ring, Endpoints: map[uint32]*shard.Endpoint{}},
	}
	env.table.Endpoints[1] = sh.Connect(cliNIC, sendRecv)
	go sh.Run()
	env.stopFn = sh.Stop
	t.Cleanup(env.stopFn)
	return env
}

func (e *liveEnv) newClient(t testing.TB, opts Options) *Client {
	t.Helper()
	opts.Clock = e.clk
	tbl := *e.table
	tbl.Endpoints = map[uint32]*shard.Endpoint{}
	for id := range e.table.Endpoints {
		// Each client gets its own connection, as in the paper's
		// per-Shard-Client request buffers.
		tbl.Endpoints[id] = e.shard.Connect(e.cliNIC, e.table.Endpoints[id].SendRecv)
	}
	return New(&tbl, opts)
}

func TestPutGetDeleteMessaging(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: false})

	if _, err := c.Get([]byte("missing")); err != ErrNotFound {
		t.Fatalf("get missing: %v", err)
	}
	if err := c.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get([]byte("alpha"))
	if err != nil || string(v) != "one" {
		t.Fatalf("get: %q %v", v, err)
	}
	if err := c.Put([]byte("alpha"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	v = testutil.Must1(c.Get([]byte("alpha")))
	if string(v) != "two" {
		t.Fatalf("after update: %q", v)
	}
	if err := c.Delete([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete([]byte("alpha")); err != ErrNotFound {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := c.Get([]byte("alpha")); err != ErrNotFound {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestRDMAReadHitPath(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})

	testutil.Must(c.Put([]byte("k"), []byte("v")))
	// Put cached the pointer: the first GET should already go one-sided.
	v, err := c.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
	snap := c.Counters().Snapshot()
	if snap.RDMAReadHits != 1 {
		t.Fatalf("rdma hits = %d, want 1", snap.RDMAReadHits)
	}
	// Repeat: all hits, no server messages.
	handledBefore := env.shard.Handled.Load()
	for i := 0; i < 50; i++ {
		if v, err := c.Get([]byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("iter %d: %q %v", i, v, err)
		}
	}
	if got := env.shard.Handled.Load() - handledBefore; got != 0 {
		t.Fatalf("server handled %d messages during one-sided GETs", got)
	}
	snap = c.Counters().Snapshot()
	if snap.RDMAReadHits != 51 {
		t.Fatalf("rdma hits = %d, want 51", snap.RDMAReadHits)
	}
}

func TestStaleReadAfterRemoteUpdate(t *testing.T) {
	env := newLiveEnv(t, false)
	a := env.newClient(t, Options{UseRDMARead: true})
	b := env.newClient(t, Options{UseRDMARead: true})

	testutil.Must(a.Put([]byte("k"), []byte("v1")))
	if v := testutil.Must1(a.Get([]byte("k"))); string(v) != "v1" {
		t.Fatal("warmup failed")
	}
	// B updates out-of-place; A's cached pointer now points at a dead item.
	if err := b.Put([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	v, err := a.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("stale fallback: %q %v", v, err)
	}
	snap := a.Counters().Snapshot()
	if snap.RDMAReadStale != 1 {
		t.Fatalf("invalid hits = %d, want 1", snap.RDMAReadStale)
	}
	// A's next GET uses the refreshed pointer one-sided again.
	hits := snap.RDMAReadHits
	if v := testutil.Must1(a.Get([]byte("k"))); string(v) != "v2" {
		t.Fatal("refreshed get failed")
	}
	if got := a.Counters().Snapshot().RDMAReadHits; got != hits+1 {
		t.Fatalf("hits after refresh = %d, want %d", got, hits+1)
	}
}

func TestGuardianAfterDelete(t *testing.T) {
	env := newLiveEnv(t, false)
	a := env.newClient(t, Options{UseRDMARead: true})
	b := env.newClient(t, Options{UseRDMARead: true})

	testutil.Must(a.Put([]byte("k"), []byte("v")))
	testutil.Must1(a.Get([]byte("k")))
	if err := b.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Get([]byte("k")); err != ErrNotFound {
		t.Fatalf("get after remote delete: %v", err)
	}
	if a.Counters().Snapshot().RDMAReadStale == 0 {
		t.Fatal("deletion did not register as invalid hit")
	}
}

func TestLeaseExpiryForcesMessagePath(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	testutil.Must(c.Put([]byte("k"), []byte("v")))
	testutil.Must1(c.Get([]byte("k")))
	// Let the lease lapse.
	env.clk.Advance(200e9)
	v, err := c.Get([]byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("post-expiry get: %q %v", v, err)
	}
	snap := c.Counters().Snapshot()
	if snap.RDMAReadStale == 0 {
		t.Fatal("expired lease should count as invalid hit")
	}
}

func TestSharedCacheAcrossClients(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewCache()
	a := env.newClient(t, Options{UseRDMARead: true, Cache: shared})
	b := env.newClient(t, Options{UseRDMARead: true, Cache: shared})

	testutil.Must(a.Put([]byte("hot"), []byte("v")))
	// B never touched the key but hits one-sided via the shared cache
	// (§4.2.4: sharing accelerates warm-up).
	v, err := b.Get([]byte("hot"))
	if err != nil || string(v) != "v" {
		t.Fatalf("b get: %q %v", v, err)
	}
	if b.Counters().Snapshot().RDMAReadHits != 1 {
		t.Fatal("shared pointer not used")
	}
	// B updates; the shared entry is refreshed, so A does NOT pay an
	// invalid read (the §4.2.4 cascading-invalidation scenario).
	testutil.Must(b.Put([]byte("hot"), []byte("v2")))
	if v := testutil.Must1(a.Get([]byte("hot"))); string(v) != "v2" {
		t.Fatal("a missed the refresh")
	}
	if a.Counters().Snapshot().RDMAReadStale != 0 {
		t.Fatal("shared cache failed to prevent the stale cascade")
	}
}

// TestSharedLeaseRefreshUnderReaders: two clients read one key one-sided
// through a shared cache while a third client's message GETs keep extending
// its lease, so the readers keep seeing a later lease than the cached one.
// Readers republish the fresher lease through the slot's seqlock while the
// other reader loads it (run under -race), and the pointer stays the same.
func TestSharedLeaseRefreshUnderReaders(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewCache()
	readers := []*Client{
		env.newClient(t, Options{UseRDMARead: true, Cache: shared}),
		env.newClient(t, Options{UseRDMARead: true, Cache: shared}),
	}
	extender := env.newClient(t, Options{UseRDMARead: false})
	key := []byte("hot")
	testutil.Must(readers[0].Put(key, []byte("v")))
	first, _ := shared.Get(key)

	var extended atomic.Bool
	get := func(c *Client) bool {
		if v, err := c.Get(key); err != nil || string(v) != "v" {
			t.Errorf("get: %q %v", v, err)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer extended.Store(true)
		for i := 0; i < 300; i++ {
			if !get(extender) {
				return
			}
		}
	}()
	for _, c := range readers {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			// Read throughout the extensions, then past the last one.
			for !extended.Load() {
				if !get(c) {
					return
				}
			}
			for i := 0; i < 50; i++ {
				if !get(c) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	last, ok := shared.Get(key)
	if !ok || last.Ptr != first.Ptr || last.LeaseExp <= first.LeaseExp {
		t.Fatalf("lease not republished: first expiry %d, last entry %+v (found %v)", first.LeaseExp, last, ok)
	}
	for _, c := range readers {
		if c.Counters().Snapshot().RDMAReadHits == 0 {
			t.Fatal("reader never went one-sided")
		}
	}
}

func TestSendRecvTransport(t *testing.T) {
	env := newLiveEnv(t, true)
	c := env.newClient(t, Options{UseRDMARead: false})
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("key%02d", i))
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("get %s: %q %v", k, v, err)
		}
	}
}

func TestEpochReroute(t *testing.T) {
	env := newLiveEnv(t, false)
	refreshed := false
	c := env.newClient(t, Options{
		UseRDMARead: false,
		Refresh: func() *RouteTable {
			refreshed = true
			tbl := *env.table
			tbl.Epoch = 7
			tbl.Endpoints = map[uint32]*shard.Endpoint{1: env.shard.Connect(env.cliNIC, false)}
			return &tbl
		},
	})
	env.shard.SetEpoch(7) // cluster reconfigured; client's epoch 0 is stale
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if !refreshed {
		t.Fatal("refresh callback not invoked")
	}
	if c.Counters().Snapshot().RoutingRetries == 0 {
		t.Fatal("routing retry not counted")
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("get after reroute: %q %v", v, err)
	}
}

func TestEpochRerouteWithoutRefreshFails(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: false})
	env.shard.SetEpoch(3)
	if err := c.Put([]byte("k"), []byte("v")); err != ErrRetries {
		t.Fatalf("want ErrRetries, got %v", err)
	}
}

func TestRenewLease(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	testutil.Must(c.Put([]byte("k"), []byte("v")))
	for i := 0; i < 5; i++ {
		testutil.Must1(c.Get([]byte("k")))
	}
	e, ok := c.Cache().Get([]byte("k"))
	if !ok {
		t.Fatal("no cached pointer")
	}
	before := e.LeaseExp
	env.clk.Advance(1500e6) // move close to expiry
	n := c.RenewPopular(2, 64e9)
	if n != 1 {
		t.Fatalf("renewed %d keys, want 1", n)
	}
	e2, _ := c.Cache().Get([]byte("k"))
	if e2.LeaseExp <= before {
		t.Fatalf("lease not extended: %d <= %d", e2.LeaseExp, before)
	}
	// Renewal of a deleted key fails and evicts the pointer.
	testutil.Must(c.Delete([]byte("k")))
	if err := c.Renew([]byte("k")); err != ErrNotFound {
		t.Fatalf("renew deleted: %v", err)
	}
	if _, ok := c.Cache().Get([]byte("k")); ok {
		t.Fatal("pointer survived failed renewal")
	}
}

// TestRenewCachesTheRenewedItem: the server renews the key's current item,
// which need not be the one a client has cached. Client A caches k, a second
// client updates k, and A renews k half a second later. A must now hold the
// renewed item's pointer, never the detached version's pointer under the
// renewed lease: the store reclaims that version at its own, shorter lease.
func TestRenewCachesTheRenewedItem(t *testing.T) {
	env := newLiveEnv(t, false)
	a := env.newClient(t, Options{UseRDMARead: true})
	b := env.newClient(t, Options{UseRDMARead: true})
	key := []byte("k")
	testutil.Must(a.Put(key, []byte("v1")))
	testutil.Must(b.Put(key, []byte("v2")))
	cur, ok := b.Cache().Get(key)
	if !ok {
		t.Fatal("no cached pointer for the live item")
	}
	env.clk.Advance(500e6)
	testutil.Must(a.Renew(key))
	e, ok := a.Cache().Get(key)
	if !ok {
		t.Fatal("no cached pointer after the renewal")
	}
	if word := env.shard.Store().Lease(e.Ptr.MetaIdx); e.LeaseExp > word {
		t.Fatalf("cached %v with lease %d, past the server's lease word %d for that item", e.Ptr, e.LeaseExp, word)
	}
	if e.Ptr != cur.Ptr {
		t.Fatalf("renewal cached %v, want the renewed live item %v", e.Ptr, cur.Ptr)
	}
	// The renewed pointer serves the next GET one-sided.
	if v := testutil.Must1(a.Get(key)); string(v) != "v2" {
		t.Fatalf("get after renewal: %q", v)
	}
	if snap := a.Counters().Snapshot(); snap.RDMAReadHits != 1 || snap.RDMAReadStale != 0 {
		t.Fatalf("get after renewal did not hit one-sided: %+v", snap)
	}
}

func TestLargeValuesThroughMailbox(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	val := bytes.Repeat([]byte("x"), 32<<10) // 32KB fits the 64KB mailbox
	if err := c.Put([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get([]byte("big"))
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("big get: len=%d err=%v", len(got), err)
	}
}

func TestManyKeysAndValues(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		v := []byte(fmt.Sprintf("val-%032d", i))
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		v, err := c.Get(k)
		if err != nil || string(v) != fmt.Sprintf("val-%032d", i) {
			t.Fatalf("key %d: %q %v", i, v, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewCache()
	const workers = 4
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		c := env.newClient(t, Options{UseRDMARead: true, Cache: shared})
		go func(w int, c *Client) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := []byte(fmt.Sprintf("key%03d", (w*37+i)%100))
				switch i % 3 {
				case 0:
					if err := c.Put(k, []byte(fmt.Sprintf("v%d-%d", w, i))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				default:
					if _, err := c.Get(k); err != nil && err != ErrNotFound {
						t.Errorf("get: %v", err)
						return
					}
				}
			}
		}(w, c)
	}
	wg.Wait()
}

// TestPipelinedShardServesRequests drives the decoupled shard over each
// transport, synchronously and batched. It answers each connection in
// arrival order, so a batch is pumped whole — no response is dropped as out
// of order and left to time out — and writes to one key land in submission
// order.
func TestPipelinedShardServesRequests(t *testing.T) {
	for _, sendRecv := range []bool{false, true} {
		clk := timing.NewManualClock(1e9)
		f := rdma.NewFabric(rdma.Config{})
		sh := shard.New(shard.Config{
			ID:    1,
			NIC:   f.NewNIC("server"),
			Store: kv.Config{ArenaBytes: 1 << 20, MaxItems: 2048, Clock: clk},
		})
		pipe := shard.NewPipelined(sh, 2, 2)
		go pipe.Run()
		t.Cleanup(pipe.Stop)

		ring := testutil.Must1(consistent.Build([]uint32{1}, 16))
		table := &RouteTable{Ring: ring, Endpoints: map[uint32]*shard.Endpoint{
			1: sh.Connect(f.NewNIC("clients"), sendRecv),
		}}
		c := New(table, Options{Clock: clk, UseRDMARead: false, RequestTimeout: time.Minute})
		for i := 0; i < 50; i++ {
			k := []byte(fmt.Sprintf("key%02d", i))
			if err := c.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if v, err := c.Get(k); err != nil || string(v) != "v" {
				t.Fatalf("sendRecv=%v: get: %q %v", sendRecv, v, err)
			}
		}
		for round := 0; round < 10; round++ {
			var pairs []KV
			for i := 0; i < 32; i++ {
				pairs = append(pairs, KV{Key: []byte("same"), Val: []byte(fmt.Sprintf("v%02d", i))})
			}
			if err := c.MultiPut(pairs); err != nil {
				t.Fatal(err)
			}
			for i, st := range c.pipe.state {
				if st != stateDone {
					t.Fatalf("sendRecv=%v round %d: op %d left to the synchronous path", sendRecv, round, i)
				}
			}
			if v, err := c.Get([]byte("same")); err != nil || string(v) != "v31" {
				t.Fatalf("sendRecv=%v round %d: last write lost: %q %v", sendRecv, round, v, err)
			}
		}
	}
}

func TestOpGetCountsAndHitAnalysis(t *testing.T) {
	// The Fig. 11 accounting: hits + invalid hits + misses == GETs.
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	for i := 0; i < 10; i++ {
		testutil.Must(c.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			testutil.Must1(c.Get([]byte(fmt.Sprintf("k%d", i))))
		}
	}
	testutil.Must(c.Put([]byte("k0"), []byte("v2"))) // refreshes own pointer
	testutil.Must1(c.Get([]byte("k0")))
	snap := c.Counters().Snapshot()
	if snap.Gets != 31 {
		t.Fatalf("gets = %d", snap.Gets)
	}
	if snap.RDMAReadHits+snap.RDMAReadStale+snap.PointerMisses != snap.Gets {
		t.Fatalf("hit analysis does not add up: %+v", snap)
	}
}

// TestGetValueOutlivesLaterResponses: a value a message GET returns is the
// caller's own copy, not a view of the response mailbox slot, which later
// responses overwrite once the ring wraps.
func TestGetValueOutlivesLaterResponses(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: false})
	testutil.Must(c.Put([]byte("kept"), []byte("kept-value")))
	others := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	for i, k := range others {
		testutil.Must(c.Put(k, []byte(fmt.Sprintf("other-value-%d", i))))
	}
	got := testutil.Must1(c.Get([]byte("kept")))
	depth := c.table.Endpoints[1].Depth()
	for i := 0; i < 2*depth; i++ {
		testutil.Must1(c.Get(others[i%len(others)]))
	}
	if string(got) != "kept-value" {
		t.Fatalf("value returned by Get changed to %q after %d further GETs", got, 2*depth)
	}
}

// TestOneSidedReadChecksTheWholeKey: a cached pointer that lands on another
// key's live item falls back to a message GET instead of returning the other
// key's value, even when the two keys share a prefix.
func TestOneSidedReadChecksTheWholeKey(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	testutil.Must(c.Put([]byte("ka"), []byte("value-a")))
	testutil.Must(c.Put([]byte("kb"), []byte("value-b")))
	_, eb, ok := c.cache.lookup([]byte("kb"))
	if !ok {
		t.Fatal("Put did not cache kb's pointer")
	}
	c.cachePointer([]byte("ka"), eb.Ptr, eb.LeaseExp)
	if v := testutil.Must1(c.Get([]byte("ka"))); string(v) != "value-a" {
		t.Fatalf("Get(ka) through kb's pointer = %q, want value-a", v)
	}
}

// TestNewEpochDropsCachedPointers: a table refresh that reveals a new
// routing epoch drops every cached pointer; one at the same epoch keeps them.
func TestNewEpochDropsCachedPointers(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	testutil.Must(c.Put([]byte("k"), []byte("v")))
	next := *c.table
	c.opts.Refresh = func() *RouteTable {
		fresh := next
		return &fresh
	}
	c.refreshTable()
	if _, _, ok := c.cache.lookup([]byte("k")); !ok {
		t.Fatal("a refresh at the same epoch dropped the cached pointer")
	}
	next.Epoch++
	c.refreshTable()
	if _, _, ok := c.cache.lookup([]byte("k")); ok {
		t.Fatal("a refresh to a new epoch kept the cached pointer")
	}
}
