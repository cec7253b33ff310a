package shard

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hydradb/internal/kv"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/replication"
	"hydradb/internal/timing"
)

func testShard(t testing.TB) (*Shard, *rdma.Fabric, *timing.ManualClock) {
	t.Helper()
	clk := timing.NewManualClock(1e9)
	f := rdma.NewFabric(rdma.Config{})
	sh := New(Config{
		ID:  7,
		NIC: f.NewNIC("server"),
		Store: kv.Config{
			ArenaBytes: 1 << 20,
			MaxItems:   4096,
			Clock:      clk,
		},
	})
	return sh, f, clk
}

// exchange performs one synchronous request/response over an endpoint.
func exchange(t testing.TB, ep *Endpoint, req message.Request) message.Response {
	t.Helper()
	buf := make([]byte, 4096)
	n := req.EncodeTo(buf)
	if err := ep.ReqBox.WriteVia(ep.QP, buf[:n], req.Seq); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, _, ok := ep.RespBox.Poll()
		if ok {
			resp, err := message.DecodeResponse(body)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Val) > 0 {
				v := make([]byte, len(resp.Val))
				copy(v, resp.Val)
				resp.Val = v
			}
			ep.RespBox.Consume()
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatal("no response")
		}
		runtime.Gosched()
	}
}

func TestShardServesOps(t *testing.T) {
	sh, f, _ := testShard(t)
	sh.Start()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)

	put := exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("k"), Val: []byte("v")})
	if put.Status != message.StatusOK || put.Existed {
		t.Fatalf("put: %+v", put)
	}
	if put.Ptr.ShardID != 7 || put.Ptr.Zero() {
		t.Fatalf("put pointer: %v", put.Ptr)
	}
	if put.LeaseExp == 0 {
		t.Fatal("put carried no lease")
	}
	get := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 2, Key: []byte("k")})
	if get.Status != message.StatusOK || string(get.Val) != "v" {
		t.Fatalf("get: %+v", get)
	}
	ren := exchange(t, ep, message.Request{Op: message.OpRenewLease, Seq: 3, Key: []byte("k")})
	if ren.Status != message.StatusOK || ren.LeaseExp < get.LeaseExp || ren.Ptr != get.Ptr {
		t.Fatalf("renew: %+v", ren)
	}
	del := exchange(t, ep, message.Request{Op: message.OpDelete, Seq: 4, Key: []byte("k")})
	if del.Status != message.StatusOK {
		t.Fatalf("delete: %+v", del)
	}
	miss := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 5, Key: []byte("k")})
	if miss.Status != message.StatusNotFound {
		t.Fatalf("get after delete: %+v", miss)
	}
}

// TestShardFreesRequestSlotBeforeReplying: the response is the client's
// credit for its next request (§4.2.1), so the request slot it answers must
// be clear before the response can land. Otherwise a client that writes its
// next request the moment the response arrives has it erased by the late
// clear. A fault hook looks at the slot as each reply is issued.
func TestShardFreesRequestSlotBeforeReplying(t *testing.T) {
	sh, f, _ := testShard(t)
	ep := sh.Connect(f.NewNIC("client"), false)
	replies, early := 0, 0
	f.SetFaultHook(func(verb rdma.Verb, local, _ *rdma.NIC, _ int) rdma.FaultOutcome {
		if verb == rdma.VerbWrite && local == sh.NIC() {
			replies++
			if ep.ReqBox.Busy() { // one request in flight: the slot at the shard's read cursor
				early++
			}
		}
		return rdma.FaultOutcome{}
	})
	buf := make([]byte, 256)
	rounds := 2 * ep.Depth()
	for i := 1; i <= rounds; i++ {
		req := message.Request{Op: message.OpPut, Seq: uint32(i), Key: []byte("k"), Val: []byte("v")}
		if err := ep.Send(buf[:req.EncodeTo(buf)], req.Seq); err != nil {
			t.Fatal(err)
		}
		if !sh.PollOnce() {
			t.Fatalf("round %d: the shard handled nothing", i)
		}
		if _, seq, ok := ep.Poll(); !ok || seq != req.Seq {
			t.Fatalf("round %d: response seq %d (ok %v), want %d", i, seq, ok, req.Seq)
		}
		ep.Release()
	}
	if replies != rounds || early != 0 {
		t.Fatalf("%d of %d replies were sent while their request slot was still busy", early, replies)
	}
}

func TestShardRejectsStaleEpoch(t *testing.T) {
	sh, f, _ := testShard(t)
	sh.Start()
	defer sh.Stop()
	sh.SetEpoch(5)
	ep := sh.Connect(f.NewNIC("client"), false)
	resp := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 1, Epoch: 4, Key: []byte("k")})
	if resp.Status != message.StatusWrongShard {
		t.Fatalf("stale epoch: %+v", resp)
	}
	if resp.Epoch != 5 {
		t.Fatalf("response must advertise current epoch, got %d", resp.Epoch)
	}
	ok := exchange(t, ep, message.Request{Op: message.OpPut, Seq: 2, Epoch: 5, Key: []byte("k"), Val: []byte("v")})
	if ok.Status != message.StatusOK {
		t.Fatalf("current epoch rejected: %+v", ok)
	}
}

func TestShardMalformedRequest(t *testing.T) {
	sh, f, _ := testShard(t)
	sh.Start()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)
	// Write garbage into the request mailbox.
	if err := ep.ReqBox.WriteVia(ep.QP, []byte{0xFF, 0x00, 0x01}, 9); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, _, ok := ep.RespBox.Poll()
		if ok {
			resp, err := message.DecodeResponse(body)
			ep.RespBox.Consume()
			if err != nil || resp.Status != message.StatusError {
				t.Fatalf("garbage must yield StatusError: %+v %v", resp, err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no response to malformed request")
		}
		runtime.Gosched()
	}
}

func TestShardRoundRobinAcrossConnections(t *testing.T) {
	sh, f, _ := testShard(t)
	sh.Start()
	defer sh.Stop()
	cli := f.NewNIC("clients")
	const conns = 5
	eps := make([]*Endpoint, conns)
	for i := range eps {
		eps[i] = sh.Connect(cli, false)
	}
	// All connections must be served.
	for round := 0; round < 20; round++ {
		for i, ep := range eps {
			key := []byte(fmt.Sprintf("conn%d-key%d", i, round))
			resp := exchange(t, ep, message.Request{Op: message.OpPut, Seq: uint32(round), Key: key, Val: []byte("v")})
			if resp.Status != message.StatusOK {
				t.Fatalf("conn %d round %d: %+v", i, round, resp)
			}
		}
	}
	if sh.Handled.Load() != conns*20 {
		t.Fatalf("handled %d, want %d", sh.Handled.Load(), conns*20)
	}
}

func TestShardReclaimAmortization(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	f := rdma.NewFabric(rdma.Config{})
	sh := New(Config{
		ID:           1,
		NIC:          f.NewNIC("server"),
		Store:        kv.Config{ArenaBytes: 1 << 20, MaxItems: 4096, Clock: clk},
		ReclaimEvery: 8,
	})
	sh.Start()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)
	// Update the same key repeatedly: each update detaches the old area.
	for i := 0; i < 16; i++ {
		exchange(t, ep, message.Request{Op: message.OpPut, Seq: uint32(i), Key: []byte("k"), Val: []byte(fmt.Sprintf("v%d", i))})
	}
	if sh.Store().PendingReclaims() == 0 {
		t.Fatal("expected pending reclaims")
	}
	// Let leases lapse, then drive more requests: the in-loop amortized
	// reclamation must free them.
	clk.Advance(300e9)
	for i := 0; i < 16; i++ {
		exchange(t, ep, message.Request{Op: message.OpGet, Seq: uint32(100 + i), Key: []byte("k")})
	}
	deadline := time.Now().Add(5 * time.Second)
	for sh.Counters.Reclaims.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("amortized reclamation never ran")
		}
		runtime.Gosched()
	}
}

func TestShardKillStopsServing(t *testing.T) {
	sh, f, _ := testShard(t)
	sh.Start()
	ep := sh.Connect(f.NewNIC("client"), false)
	exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("k"), Val: []byte("v")})
	put := exchange(t, ep, message.Request{Op: message.OpPut, Seq: 2, Key: []byte("k"), Val: []byte("w")})
	sh.Kill()
	if !sh.Killed() {
		t.Fatal("killed flag")
	}
	// Death revokes the shard's registrations: requests written after the
	// kill fail at the fabric instead of landing in memory nobody drains,
	// and one-sided reads of the frozen arena fail instead of returning
	// pre-crash bytes (the §5 staleness hazard).
	buf := make([]byte, 256)
	req := message.Request{Op: message.OpGet, Seq: 3, Key: []byte("k")}
	n := req.EncodeTo(buf)
	if err := ep.ReqBox.WriteVia(ep.QP, buf[:n], 3); err != rdma.ErrRevoked {
		t.Fatalf("write to dead shard: %v, want ErrRevoked", err)
	}
	dst := make([]byte, put.Ptr.DataLen)
	if _, _, err := ep.QP.Read(ep.ArenaMR, int(put.Ptr.DataOff), dst,
		int(put.Ptr.MetaIdx)); err != rdma.ErrRevoked {
		t.Fatalf("read of dead arena: %v, want ErrRevoked", err)
	}
	if _, _, ok := ep.RespBox.Poll(); ok {
		t.Fatal("dead shard responded")
	}
}

func TestEndpointArenaReadableViaQP(t *testing.T) {
	// The endpoint's QP + ArenaMR enable one-sided reads of items (the
	// client package builds on this; verify at the shard boundary).
	sh, f, _ := testShard(t)
	sh.Start()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)
	put := exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("k"), Val: []byte("val-bytes")})
	dst := make([]byte, put.Ptr.DataLen)
	_, words, err := ep.QP.Read(ep.ArenaMR, int(put.Ptr.DataOff), dst,
		int(put.Ptr.MetaIdx), int(put.Ptr.MetaIdx)+1)
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != kv.GuardianLive {
		t.Fatal("guardian not live")
	}
	k, v, ok := kv.DecodeItem(dst)
	if !ok || string(k) != "k" || string(v) != "val-bytes" {
		t.Fatalf("one-sided read: %q %q %v", k, v, ok)
	}
}

func TestPipelinedMatchesSingleThreadSemantics(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	f := rdma.NewFabric(rdma.Config{})
	sh := New(Config{
		ID:    1,
		NIC:   f.NewNIC("server"),
		Store:     kv.Config{ArenaBytes: 1 << 20, MaxItems: 4096, Clock: clk},
		Pipelined: true,
	})
	sh.Start()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)
	for i := 0; i < 30; i++ {
		key := []byte(fmt.Sprintf("key%02d", i))
		if r := exchange(t, ep, message.Request{Op: message.OpPut, Seq: uint32(i), Key: key, Val: []byte("v")}); r.Status != message.StatusOK {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	for i := 0; i < 30; i++ {
		key := []byte(fmt.Sprintf("key%02d", i))
		if r := exchange(t, ep, message.Request{Op: message.OpGet, Seq: uint32(100 + i), Key: key}); r.Status != message.StatusOK {
			t.Fatalf("get %d: %+v", i, r)
		}
	}
}

func TestShardFailedReplicationLeavesValueInvisible(t *testing.T) {
	// Replicate-before-apply: when the backup link is down, a Put fails AND
	// the value must not be readable afterwards — no client can ever observe
	// a value that is not in the replication stream.
	sh, f, clk := testShard(t)
	pnic := f.NewNIC("repl-primary")
	snic := f.NewNIC("repl-sec")
	cfg := replication.LogConfig{Slots: 16, SlotSize: 256, AckEvery: 4}
	p := replication.NewPrimary(pnic, cfg, 1)
	qpP, qpS := rdma.Connect(pnic, snic, 8)
	log := replication.NewLog(snic, cfg)
	ackIdx, err := p.AddSecondary(qpP, log)
	if err != nil {
		t.Fatal(err)
	}
	backup := kv.NewStore(kv.Config{ArenaBytes: 1 << 20, MaxItems: 4096, Clock: clk})
	applier := replication.ApplierFunc(func(seq uint64, r replication.Record) error {
		switch r.Op {
		case message.OpPut:
			_, _, err := backup.Put(r.Key, r.Val)
			return err
		case message.OpDelete:
			backup.Delete(r.Key)
		}
		return nil
	})
	sec := replication.NewSecondary(log, applier, qpS, p.AckRegion(), ackIdx)
	sec.Start()
	defer sec.Stop()
	sh.AttachPrimary(p)
	sh.Start()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)

	f.SetFaultHook(func(v rdma.Verb, local, remote *rdma.NIC, nbytes int) rdma.FaultOutcome {
		if v == rdma.VerbWrite && remote.Name() == "repl-sec" {
			return rdma.FaultOutcome{Err: rdma.ErrInjected}
		}
		return rdma.FaultOutcome{}
	})
	put := exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("k"), Val: []byte("v")})
	if put.Status != message.StatusError {
		t.Fatalf("put over dead backup link: %+v", put)
	}
	get := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 2, Key: []byte("k")})
	if get.Status != message.StatusNotFound {
		t.Fatalf("failed put became visible: %+v", get)
	}

	f.SetFaultHook(nil)
	ok := exchange(t, ep, message.Request{Op: message.OpPut, Seq: 3, Key: []byte("k"), Val: []byte("v2")})
	if ok.Status != message.StatusOK {
		t.Fatalf("put after heal: %+v", ok)
	}
	get2 := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 4, Key: []byte("k")})
	if get2.Status != message.StatusOK || string(get2.Val) != "v2" {
		t.Fatalf("get after heal: %+v", get2)
	}
}
