package message

import (
	"bytes"
	"testing"

	"hydradb/internal/kv"
)

// FuzzMessageRoundTrip fuzzes the request/response framing from both
// directions: structured values must survive encode→decode unchanged, and
// arbitrary bytes must never panic the decoders — a shard polls its request
// mailbox straight off RDMA-written memory (§4.2.1), so the decoder is the
// only thing between a hostile byte pattern and the shard loop.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(byte(1), uint32(7), uint32(1), []byte("key"), []byte("value"), []byte{})
	f.Add(byte(3), uint32(0), uint32(9), []byte(""), []byte(""), []byte("\x01\x00garbage"))
	f.Add(byte(200), ^uint32(0), uint32(42), bytes.Repeat([]byte("k"), 300), bytes.Repeat([]byte("v"), 1000), bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, opByte byte, seq, epoch uint32, key, val, raw []byte) {
		// --- Structured round trip: request. ---
		if len(key) > 0xffff {
			key = key[:0xffff]
		}
		req := Request{
			Op:    Op(opByte%byte(OpRenewLease) + 1), // clamp into the valid op range
			Seq:   seq,
			Epoch: epoch,
			Key:   key,
			Val:   val,
		}
		buf := make([]byte, req.EncodedSize())
		if n := req.EncodeTo(buf); n != len(buf) {
			t.Fatalf("EncodeTo wrote %d, EncodedSize %d", n, len(buf))
		}
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("DecodeRequest(encoded): %v", err)
		}
		if got.Op != req.Op || got.Seq != req.Seq || got.Epoch != req.Epoch ||
			!bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Val, req.Val) {
			t.Fatalf("request round trip mismatch: %+v != %+v", got, req)
		}

		// --- Structured round trip: response. ---
		resp := Response{
			Status:   Status(opByte%byte(StatusError) + 1),
			Existed:  seq%2 == 1,
			Seq:      seq,
			Epoch:    epoch,
			LeaseExp: int64(seq)<<32 | int64(epoch),
			Ptr: kv.RemotePtr{
				ShardID: epoch,
				DataOff: seq ^ 0x5a5a5a5a,
				DataLen: uint32(len(val)),
				MetaIdx: seq >> 3,
			},
			Val: val,
		}
		rbuf := make([]byte, resp.EncodedSize())
		if n := resp.EncodeTo(rbuf); n != len(rbuf) {
			t.Fatalf("Response EncodeTo wrote %d, EncodedSize %d", n, len(rbuf))
		}
		rgot, err := DecodeResponse(rbuf)
		if err != nil {
			t.Fatalf("DecodeResponse(encoded): %v", err)
		}
		if rgot.Status != resp.Status || rgot.Existed != resp.Existed ||
			rgot.Seq != resp.Seq || rgot.Epoch != resp.Epoch ||
			rgot.LeaseExp != resp.LeaseExp || rgot.Ptr != resp.Ptr ||
			!bytes.Equal(rgot.Val, resp.Val) {
			t.Fatalf("response round trip mismatch: %+v != %+v", rgot, resp)
		}

		// --- Adversarial bytes: decoders must reject or decode, never
		// panic, and anything they accept must re-encode decodable. ---
		if r, err := DecodeRequest(raw); err == nil {
			b2 := make([]byte, r.EncodedSize())
			r.EncodeTo(b2)
			r2, err := DecodeRequest(b2)
			if err != nil {
				t.Fatalf("re-encoded accepted request rejected: %v", err)
			}
			if r2.Op != r.Op || !bytes.Equal(r2.Key, r.Key) || !bytes.Equal(r2.Val, r.Val) {
				t.Fatalf("accepted request not stable: %+v != %+v", r2, r)
			}
		}
		if r, err := DecodeResponse(raw); err == nil {
			b2 := make([]byte, r.EncodedSize())
			r.EncodeTo(b2)
			r2, err := DecodeResponse(b2)
			if err != nil {
				t.Fatalf("re-encoded accepted response rejected: %v", err)
			}
			if r2.Status != r.Status || r2.Ptr != r.Ptr || !bytes.Equal(r2.Val, r.Val) {
				t.Fatalf("accepted response not stable: %+v != %+v", r2, r)
			}
		}
	})
}

// FuzzMailboxRing drives a ring mailbox with a fuzzer-chosen schedule of
// writes and consumes and checks it against a simple FIFO queue model:
// every delivered message must come out in write order with its seq and
// body intact, the ring must report full exactly when the model says depth
// messages are outstanding, and no schedule may panic or corrupt a slot.
func FuzzMailboxRing(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 0, 1})
	f.Add(uint8(4), []byte{0, 0, 0, 0, 1, 1, 1, 1, 0, 1})
	f.Add(uint8(16), bytes.Repeat([]byte{0, 0, 1}, 20))

	f.Fuzz(func(t *testing.T, depthByte uint8, schedule []byte) {
		depth := int(depthByte)%16 + 1
		ring, qp := ringPair(t, 64, depth)

		type msg struct {
			seq  uint32
			body string
		}
		var model []msg // FIFO of in-flight messages, oldest first
		next := uint32(0)

		for _, step := range schedule {
			if step%2 == 0 { // write
				if len(model) == depth {
					// Window closed: a remote writer must not write (it would
					// corrupt the slot), but the loopback writer must detect it.
					if err := ring.WriteLocal([]byte("x"), next); err != ErrRingFull {
						t.Fatalf("full ring (depth %d) accepted local write: %v", depth, err)
					}
					continue
				}
				body := []byte{byte(next), byte(next >> 8), 'p'}
				var err error
				if next%2 == 0 {
					err = ring.WriteVia(qp, body, next)
				} else {
					err = ring.WriteLocal(body, next)
				}
				if err != nil {
					t.Fatalf("write seq %d with %d in flight: %v", next, len(model), err)
				}
				model = append(model, msg{next, string(body)})
				next++
			} else { // consume
				body, seq, ok := ring.Poll()
				if len(model) == 0 {
					if ok {
						t.Fatalf("empty ring delivered seq %d", seq)
					}
					continue
				}
				if !ok {
					t.Fatalf("ring with %d in flight polled empty", len(model))
				}
				want := model[0]
				if seq != want.seq || string(body) != want.body {
					t.Fatalf("FIFO order broken: got seq=%d %q, want seq=%d %q",
						seq, body, want.seq, want.body)
				}
				ring.Consume()
				model = model[1:]
			}
		}

		// Drain what the schedule left behind.
		for _, want := range model {
			body, seq, ok := ring.Poll()
			if !ok || seq != want.seq || string(body) != want.body {
				t.Fatalf("drain mismatch: got seq=%d %q ok=%v, want seq=%d %q",
					seq, body, ok, want.seq, want.body)
			}
			ring.Consume()
		}
		if _, _, ok := ring.Poll(); ok {
			t.Fatal("drained ring still delivers")
		}
	})
}
