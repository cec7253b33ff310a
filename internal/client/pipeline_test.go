package client

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"hydradb/internal/consistent"
	"hydradb/internal/kv"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/shard"
	"hydradb/internal/testutil"
	"hydradb/internal/timing"
)

func TestMultiPutMultiGet(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: false})

	const n = 30
	var pairs []KV
	for i := 0; i < n; i++ {
		pairs = append(pairs, KV{
			Key: []byte(fmt.Sprintf("pk%03d", i)),
			Val: []byte(fmt.Sprintf("pv%03d", i)),
		})
	}
	if err := c.MultiPut(pairs); err != nil {
		t.Fatal(err)
	}

	var keys [][]byte
	for i := 0; i < n; i++ {
		keys = append(keys, []byte(fmt.Sprintf("pk%03d", i)))
	}
	keys = append(keys, []byte("absent"))
	vals, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n+1 {
		t.Fatalf("got %d results, want %d", len(vals), n+1)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("pv%03d", i)
		if string(vals[i]) != want {
			t.Fatalf("key %d: %q, want %q", i, vals[i], want)
		}
	}
	if vals[n] != nil {
		t.Fatalf("missing key returned %q", vals[n])
	}

	// Batched gets are message ops here, so parity must hold:
	// every GET is a pointer miss on the message-only configuration.
	snap := c.Counters().Snapshot()
	if snap.Gets != n+1 || snap.PointerMisses != n+1 {
		t.Fatalf("counters: gets=%d misses=%d, want %d each", snap.Gets, snap.PointerMisses, n+1)
	}
	if snap.Updates != n {
		t.Fatalf("updates=%d, want %d", snap.Updates, n)
	}
}

// TestPipelineSameKeyOrdering drives several ops against one key through a
// single batch, over each transport; in-order issue into a FIFO connection
// must serialize them.
func TestPipelineSameKeyOrdering(t *testing.T) {
	for _, sendRecv := range []bool{false, true} {
		env := newLiveEnv(t, sendRecv)
		c := env.newClient(t, Options{UseRDMARead: false})
		k := []byte("ordered")
		res := c.Pipeline([]Op{
			{Code: message.OpPut, Key: k, Val: []byte("one")},
			{Code: message.OpGet, Key: k},
			{Code: message.OpPut, Key: k, Val: []byte("two")},
			{Code: message.OpGet, Key: k},
			{Code: message.OpDelete, Key: k},
			{Code: message.OpGet, Key: k},
		})
		if res[0].Err != nil || res[2].Err != nil || res[4].Err != nil {
			t.Fatalf("sendRecv=%v: write errs: %v %v %v", sendRecv, res[0].Err, res[2].Err, res[4].Err)
		}
		if string(res[1].Val) != "one" {
			t.Fatalf("sendRecv=%v: first get: %q", sendRecv, res[1].Val)
		}
		if string(res[3].Val) != "two" {
			t.Fatalf("sendRecv=%v: second get: %q", sendRecv, res[3].Val)
		}
		if !res[4].Existed {
			t.Fatalf("sendRecv=%v: delete of live key reported !Existed", sendRecv)
		}
		if res[5].Err != ErrNotFound {
			t.Fatalf("sendRecv=%v: get after delete: %v", sendRecv, res[5].Err)
		}
	}

	// With k's pointer cached, a GET ahead of the batch's first write may
	// still complete one-sided, but a GET behind a write must read it.
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	k := []byte("ordered")
	if err := c.Put(k, []byte("v1")); err != nil { // Put caches the pointer
		t.Fatal(err)
	}
	hitsBefore := c.Counters().Snapshot().RDMAReadHits
	res := c.Pipeline([]Op{
		{Code: message.OpGet, Key: k},
		{Code: message.OpPut, Key: k, Val: []byte("v2")},
		{Code: message.OpGet, Key: k},
		{Code: message.OpDelete, Key: k},
		{Code: message.OpGet, Key: k},
	})
	if string(res[0].Val) != "v1" || string(res[2].Val) != "v2" || res[4].Err != ErrNotFound {
		t.Fatalf("cached pointer: gets %q %q %v, want v1 v2 ErrNotFound", res[0].Val, res[2].Val, res[4].Err)
	}
	if hits := c.Counters().Snapshot().RDMAReadHits - hitsBefore; hits != 1 {
		t.Fatalf("%d one-sided hits, want 1 (the get ahead of the first write)", hits)
	}
}

// TestPipelineWindowOption: a batch ten times the ring depth stays within
// the depth-4 ring, the one bound on requests in flight per connection.
func TestPipelineWindowOption(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	f := rdma.NewFabric(rdma.Config{})
	sh := shard.New(shard.Config{
		ID:        1,
		NIC:       f.NewNIC("server"),
		Store:     kv.Config{ArenaBytes: 1 << 20, MaxItems: 2048, Clock: clk},
		RingDepth: 4,
	})
	sh.Start()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("clients"), false)
	if ep.Depth() != 4 {
		t.Fatalf("endpoint depth %d, want 4", ep.Depth())
	}
	ring := testutil.Must1(consistent.Build([]uint32{1}, 16))
	c := New(&RouteTable{Ring: ring, Endpoints: map[uint32]*shard.Endpoint{1: ep}}, Options{Clock: clk})
	var pairs []KV
	for i := 0; i < 40; i++ {
		pairs = append(pairs, KV{Key: []byte(fmt.Sprintf("w%03d", i)), Val: []byte("v")})
	}
	if err := c.MultiPut(pairs); err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for i := 0; i < 40; i++ {
		keys = append(keys, []byte(fmt.Sprintf("w%03d", i)))
	}
	vals, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != "v" {
			t.Fatalf("key %d: %q", i, v)
		}
	}
}

// TestPipelineOneSidedHits: with warm pointers, a batched MultiGet completes
// one-sided at route time — no shard messages at all.
func TestPipelineOneSidedHits(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: true})
	var keys [][]byte
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("hot%02d", i))
		if err := c.Put(k, []byte("v")); err != nil { // Put caches the pointer
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	handledBefore := env.shard.Handled.Load()
	vals, err := c.MultiGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != "v" {
			t.Fatalf("key %d: %q", i, v)
		}
	}
	if got := env.shard.Handled.Load() - handledBefore; got != 0 {
		t.Fatalf("shard handled %d messages during one-sided batch", got)
	}
	if hits := c.Counters().Snapshot().RDMAReadHits; hits != 10 {
		t.Fatalf("rdma hits = %d, want 10", hits)
	}
}

// TestPipelineWrongShardFallsBack: an epoch-stale batch reroutes through the
// synchronous path's refresh machinery and still completes.
func TestPipelineWrongShardFallsBack(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{
		UseRDMARead: false,
		Refresh: func() *RouteTable {
			tbl := *env.table
			tbl.Epoch = 7
			tbl.Endpoints = map[uint32]*shard.Endpoint{1: env.shard.Connect(env.cliNIC, false)}
			return &tbl
		},
	})
	env.shard.SetEpoch(7)
	var pairs []KV
	for i := 0; i < 8; i++ {
		pairs = append(pairs, KV{Key: []byte(fmt.Sprintf("e%d", i)), Val: []byte("v")})
	}
	if err := c.MultiPut(pairs); err != nil {
		t.Fatal(err)
	}
	if c.Counters().Snapshot().RoutingRetries == 0 {
		t.Fatal("routing retry not counted")
	}
	for i := 0; i < 8; i++ {
		if v, err := c.Get([]byte(fmt.Sprintf("e%d", i))); err != nil || string(v) != "v" {
			t.Fatalf("get e%d: %q %v", i, v, err)
		}
	}
}

// TestPipelineSendRecv: batches over the two-sided baseline transport are
// pumped like mailbox batches — several requests in flight, matched by the
// seq in the response header — not diverted to the synchronous path.
func TestPipelineSendRecv(t *testing.T) {
	env := newLiveEnv(t, true)
	c := env.newClient(t, Options{UseRDMARead: false})
	pairs := []KV{
		{Key: []byte("a"), Val: []byte("1")},
		{Key: []byte("b"), Val: []byte("2")},
	}
	if err := c.MultiPut(pairs); err != nil {
		t.Fatal(err)
	}
	vals, err := c.MultiGet([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if string(vals[0]) != "1" || string(vals[1]) != "2" || vals[2] != nil {
		t.Fatalf("vals: %q %q %q", vals[0], vals[1], vals[2])
	}
	// The pump marks what it completes done; a fallback op stays marked
	// for the synchronous path.
	for i, st := range c.pipe.state {
		if st != stateDone {
			t.Fatalf("op %d finished in state %d, want pumped (%d)", i, st, stateDone)
		}
	}
}

// TestPipelineLargeValues round-trips values near the slot capacity through
// a batched put+get.
func TestPipelineLargeValues(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: false})
	val := bytes.Repeat([]byte("y"), 32<<10)
	if err := c.MultiPut([]KV{{Key: []byte("big1"), Val: val}, {Key: []byte("big2"), Val: val}}); err != nil {
		t.Fatal(err)
	}
	vals, err := c.MultiGet([][]byte{[]byte("big1"), []byte("big2")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vals[0], val) || !bytes.Equal(vals[1], val) {
		t.Fatalf("large batched values corrupted: %d %d", len(vals[0]), len(vals[1]))
	}
}

// TestStaleSeqResponseDropped preloads the response ring with a response
// whose seq matches no outstanding request — the late reply of an abandoned
// attempt. The client must drop it instead of misattributing it to the next
// request (the request() seq-check regression).
func TestStaleSeqResponseDropped(t *testing.T) {
	env := newLiveEnv(t, false)
	c := env.newClient(t, Options{UseRDMARead: false})
	ep := c.Table().Endpoints[1]

	stale := message.Response{Status: message.StatusNotFound, Seq: 999}
	buf := make([]byte, stale.EncodedSize())
	n := stale.EncodeTo(buf)
	if err := ep.RespBox.WriteLocal(buf[:n], stale.Seq); err != nil {
		t.Fatal(err)
	}

	// Without the seq check this Put would consume the NotFound response and
	// fail with ErrRemote.
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put across stale response: %v", err)
	}
	if v, err := c.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
}

// TestTimeoutRetrySeqMisattribution reproduces the full bug scenario: a
// stalled shard (its ManualClock store clock never ticks and its loop is not
// running) forces timeout-triggered retries; when the shard finally starts,
// the late responses of the abandoned attempts arrive ahead of the current
// request's and must all be dropped by seq.
func TestTimeoutRetrySeqMisattribution(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	f := rdma.NewFabric(rdma.Config{})
	srvNIC := f.NewNIC("server")
	cliNIC := f.NewNIC("clients")
	sh := shard.New(shard.Config{
		ID:    1,
		NIC:   srvNIC,
		Store: kv.Config{ArenaBytes: 1 << 20, MaxItems: 2048, Clock: clk},
	})
	ring := testutil.Must1(consistent.Build([]uint32{1}, 16))
	table := &RouteTable{Ring: ring, Endpoints: map[uint32]*shard.Endpoint{
		1: sh.Connect(cliNIC, false),
	}}
	c := New(table, Options{
		Clock:          clk,
		UseRDMARead:    false,
		MaxRetries:     1,
		RequestTimeout: 5 * time.Millisecond,
		Refresh:        func() *RouteTable { return table },
	})

	// Shard is down: both attempts of this Get time out, leaving two
	// requests in the ring whose responses will arrive late.
	if _, err := c.Get([]byte("ghost")); err != ErrRetries {
		t.Fatalf("get against stalled shard: %v", err)
	}

	// Shard recovers and answers the abandoned requests (NotFound for
	// "ghost") before it sees anything new.
	sh.Start()
	defer sh.Stop()

	// Without the seq check, the Put would match ghost's NotFound response
	// and report ErrRemote.
	if err := c.Put([]byte("real"), []byte("value")); err != nil {
		t.Fatalf("put after recovery: %v", err)
	}
	if v, err := c.Get([]byte("real")); err != nil || string(v) != "value" {
		t.Fatalf("get after recovery: %q %v", v, err)
	}
	if rr := c.Counters().Snapshot().RoutingRetries; rr < 2 {
		t.Fatalf("routing retries = %d, want >= 2", rr)
	}
}

// TestBatchSendFailureKeepsKeyOrder: the first request write of a batch
// fails. The failed send stops its connection, so the second write to the
// same key is not issued ahead of the first; the retry round sends both in
// submission order and the later value wins.
func TestBatchSendFailureKeepsKeyOrder(t *testing.T) {
	env := newLiveEnv(t, false)
	var c *Client
	c = env.newClient(t, Options{
		UseRDMARead: false,
		Refresh:     func() *RouteTable { return c.Table() },
	})
	var failed atomic.Bool
	env.fabric.SetFaultHook(func(verb rdma.Verb, local, _ *rdma.NIC, nbytes int) rdma.FaultOutcome {
		if verb == rdma.VerbWrite && local == env.cliNIC && nbytes > 8 && failed.CompareAndSwap(false, true) {
			return rdma.FaultOutcome{Err: rdma.ErrInjected}
		}
		return rdma.FaultOutcome{}
	})
	defer env.fabric.SetFaultHook(nil)
	k := []byte("k")
	if err := c.MultiPut([]KV{{Key: k, Val: []byte("v1")}, {Key: k, Val: []byte("v2")}}); err != nil {
		t.Fatal(err)
	}
	if !failed.Load() {
		t.Fatal("no request write was failed")
	}
	if v, err := c.Get(k); err != nil || string(v) != "v2" {
		t.Fatalf("get after MultiPut(v1, v2): %q %v, want v2", v, err)
	}
}

// TestOversizedRequestFailsFast: a request larger than the mailbox slot is
// refused by the send itself. That is no routing failure, so neither Put nor
// MultiPut refreshes the route table or retries.
func TestOversizedRequestFailsFast(t *testing.T) {
	env := newLiveEnv(t, false)
	refreshes := 0
	c := env.newClient(t, Options{
		UseRDMARead: false,
		Refresh: func() *RouteTable {
			refreshes++
			return env.table
		},
	})
	big := bytes.Repeat([]byte("z"), 70<<10)
	if err := c.Put([]byte("big"), big); err != message.ErrTooLarge {
		t.Fatalf("Put of %d bytes: %v, want ErrTooLarge", len(big), err)
	}
	if err := c.MultiPut([]KV{{Key: []byte("a"), Val: []byte("1")}, {Key: []byte("big"), Val: big}, {Key: []byte("b"), Val: []byte("2")}}); err != message.ErrTooLarge {
		t.Fatalf("MultiPut with a %d-byte value: %v, want ErrTooLarge", len(big), err)
	}
	if rr := c.Counters().Snapshot().RoutingRetries; rr != 0 || refreshes != 0 {
		t.Fatalf("routing retries %d, refreshes %d; want 0 and 0", rr, refreshes)
	}
	for _, k := range []string{"a", "b"} {
		if v, err := c.Get([]byte(k)); err != nil || len(v) != 1 {
			t.Fatalf("get %s beside the oversized put: %q %v", k, v, err)
		}
	}
}
