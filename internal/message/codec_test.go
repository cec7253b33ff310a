package message

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"hydradb/internal/arena"
	"hydradb/internal/kv"
	"hydradb/internal/rdma"
)

func TestRequestRoundTrip(t *testing.T) {
	f := func(op uint8, seq, epoch uint32, key, val []byte) bool {
		if len(key) > 1000 || len(val) > 1000 {
			return true
		}
		req := Request{
			Op:    OpGet + Op(op%uint8(OpRenewLease)),
			Seq:   seq,
			Epoch: epoch,
			Key:   key,
			Val:   val,
		}
		buf := make([]byte, req.EncodedSize())
		n := req.EncodeTo(buf)
		if n != len(buf) {
			return false
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			return false
		}
		return got.Op == req.Op && got.Seq == seq && SeqOf(buf) == seq && got.Epoch == epoch &&
			bytes.Equal(got.Key, key) && bytes.Equal(got.Val, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := Response{
		Status:   StatusOK,
		Existed:  true,
		Seq:      77,
		Epoch:    3,
		LeaseExp: 123456789012,
		Ptr:      kv.RemotePtr{ShardID: 9, DataOff: 4096, DataLen: 54, MetaIdx: 12},
		Val:      []byte("value-bytes"),
	}
	buf := make([]byte, resp.EncodedSize())
	resp.EncodeTo(buf)
	got, err := DecodeResponse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusOK || !got.Existed || got.Seq != 77 || got.Epoch != 3 ||
		got.LeaseExp != resp.LeaseExp || got.Ptr != resp.Ptr || string(got.Val) != "value-bytes" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if SeqOf(buf) != 77 || SeqOf(buf[:5]) != 0 {
		t.Fatalf("SeqOf: %d on the response, %d on a 5-byte prefix", SeqOf(buf), SeqOf(buf[:5]))
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := DecodeRequest(nil); err != ErrMalformed {
		t.Fatal("nil request decoded")
	}
	if _, err := DecodeRequest(make([]byte, 8)); err != ErrMalformed {
		t.Fatal("short request decoded")
	}
	// Zeroed buffer: op 0 is invalid.
	if _, err := DecodeRequest(make([]byte, 64)); err != ErrMalformed {
		t.Fatal("zeroed request decoded")
	}
	// keyLen pointing past the buffer.
	req := Request{Op: OpGet, Key: []byte("k")}
	buf := make([]byte, req.EncodedSize())
	req.EncodeTo(buf)
	buf[10] = 0xFF
	if _, err := DecodeRequest(buf); err != ErrMalformed {
		t.Fatal("overflowing keyLen decoded")
	}
	if _, err := DecodeResponse(make([]byte, 10)); err != ErrMalformed {
		t.Fatal("short response decoded")
	}
	if _, err := DecodeResponse(make([]byte, 64)); err != ErrMalformed {
		t.Fatal("zeroed response decoded")
	}
}

func TestOpString(t *testing.T) {
	if OpGet.String() != "GET" || OpPut.String() != "PUT" || Op(99).String() != "Op(99)" {
		t.Fatal("op names wrong")
	}
}

func TestIndicatorEncoding(t *testing.T) {
	f := func(seq uint32, rawSize uint16) bool {
		size := int(rawSize)
		ind := makeIndicator(seq, size)
		gotSeq, gotSize, present := splitIndicator(ind)
		return present && gotSeq == seq&0x7fffffff && gotSize == size && ind != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, present := splitIndicator(0); present {
		t.Fatal("zero word must read as absent")
	}
}

func mailboxPair(t testing.TB) (*Mailbox, *rdma.QP) {
	t.Helper()
	f := rdma.NewFabric(rdma.Config{})
	cli, srv := f.NewNIC("cli"), f.NewNIC("srv")
	qc, _ := rdma.Connect(cli, srv, 4)
	mr := srv.Register(make([]byte, 4096), arena.NewWordArea(2, 2))
	return NewMailbox(mr, 0, 4096, 0, 1), qc
}

func TestMailboxDeliverConsume(t *testing.T) {
	mb, qp := mailboxPair(t)
	if _, _, ok := mb.Poll(); ok {
		t.Fatal("empty mailbox polled a message")
	}
	if mb.Busy() {
		t.Fatal("empty mailbox busy")
	}
	body := []byte("request-body")
	if err := mb.WriteVia(qp, body, 5); err != nil {
		t.Fatal(err)
	}
	if !mb.Busy() {
		t.Fatal("mailbox not busy after write")
	}
	got, seq, ok := mb.Poll()
	if !ok || seq != 5 || !bytes.Equal(got, body) {
		t.Fatalf("poll: %q seq=%d ok=%v", got, seq, ok)
	}
	mb.Consume()
	if mb.Busy() {
		t.Fatal("mailbox busy after consume")
	}
	if _, _, ok := mb.Poll(); ok {
		t.Fatal("consumed mailbox still polls")
	}
}

func TestMailboxCapacity(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	cli, srv := f.NewNIC("cli"), f.NewNIC("srv")
	qc, _ := rdma.Connect(cli, srv, 4)
	mr := srv.Register(make([]byte, 64), arena.NewWordArea(1, 2))
	mb := NewMailbox(mr, 0, 64, 0, 1)
	if err := mb.WriteVia(qc, make([]byte, 65), 1); err == nil {
		t.Fatal("oversized body accepted")
	}
	if err := mb.WriteLocal(make([]byte, 65), 1); err == nil {
		t.Fatal("oversized local body accepted")
	}
	if mb.Capacity() != 64 {
		t.Fatalf("capacity = %d", mb.Capacity())
	}
}

func TestMailboxWriteLocal(t *testing.T) {
	mb, _ := mailboxPair(t)
	if err := mb.WriteLocal([]byte("loopback"), 9); err != nil {
		t.Fatal(err)
	}
	got, seq, ok := mb.Poll()
	if !ok || seq != 9 || string(got) != "loopback" {
		t.Fatalf("local write: %q %d %v", got, seq, ok)
	}
}

// TestMailboxPingPong runs the full request/response alternation between a
// polling "shard" goroutine and a client, under the race detector.
func TestMailboxPingPong(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	cli, srv := f.NewNIC("cli"), f.NewNIC("srv")
	qc, qs := rdma.Connect(cli, srv, 4)

	reqMR := srv.Register(make([]byte, 1024), arena.NewWordArea(1, 2))
	respMR := cli.Register(make([]byte, 1024), arena.NewWordArea(1, 2))
	reqBox := NewMailbox(reqMR, 0, 1024, 0, 1)
	respBox := NewMailbox(respMR, 0, 1024, 0, 1)

	const rounds = 500
	go func() { // shard
		for i := 0; i < rounds; i++ {
			var body []byte
			var seq uint32
			for {
				var ok bool
				body, seq, ok = reqBox.Poll()
				if ok {
					break
				}
				runtime.Gosched()
			}
			req, err := DecodeRequest(body)
			if err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
			resp := Response{Status: StatusOK, Seq: req.Seq, Val: req.Key}
			out := make([]byte, resp.EncodedSize())
			resp.EncodeTo(out)
			reqBox.Consume()
			if err := respBox.WriteVia(qs, out, seq); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	reqBuf := make([]byte, 1024)
	for i := 0; i < rounds; i++ {
		req := Request{Op: OpGet, Seq: uint32(i), Key: []byte("key")}
		n := req.EncodeTo(reqBuf)
		if err := reqBox.WriteVia(qc, reqBuf[:n], uint32(i)); err != nil {
			t.Fatal(err)
		}
		var body []byte
		for {
			var ok bool
			body, _, ok = respBox.Poll()
			if ok {
				break
			}
			runtime.Gosched()
		}
		resp, err := DecodeResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Seq != uint32(i) || string(resp.Val) != "key" {
			t.Fatalf("round %d: seq=%d val=%q", i, resp.Seq, resp.Val)
		}
		respBox.Consume()
	}
}

func BenchmarkRequestEncodeDecode(b *testing.B) {
	req := Request{Op: OpPut, Seq: 1, Key: make([]byte, 16), Val: make([]byte, 32)}
	buf := make([]byte, req.EncodedSize())
	for i := 0; i < b.N; i++ {
		req.EncodeTo(buf)
		if _, err := DecodeRequest(buf); err != nil {
			b.Fatal(err)
		}
	}
}
