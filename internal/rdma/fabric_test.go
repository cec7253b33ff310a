package rdma

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"hydradb/internal/testutil"
	"time"

	"hydradb/internal/arena"
)

func pair(t testing.TB, cfg Config) (*QP, *QP, *MemoryRegion, *MemoryRegion) {
	t.Helper()
	f := NewFabric(cfg)
	a := f.NewNIC("client")
	b := f.NewNIC("server")
	qa, qb := Connect(a, b, 8)
	mra := a.Register(make([]byte, 4096), arena.NewWordArea(16, 2))
	mrb := b.Register(make([]byte, 4096), arena.NewWordArea(16, 2))
	return qa, qb, mra, mrb
}

func TestWriteBytesOneSided(t *testing.T) {
	qa, _, _, mrb := pair(t, Config{})
	msg := []byte("hello one-sided world")
	if err := qa.WriteBytes(mrb, 100, msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mrb.Data()[100:100+len(msg)], msg) {
		t.Fatal("payload not delivered")
	}
	if mrb.NIC().Ops.Load() == 0 {
		t.Fatal("target NIC op not accounted")
	}
}

func TestWriteTargetValidation(t *testing.T) {
	qa, _, mra, mrb := pair(t, Config{})
	// Writing to a region on the local NIC through this QP must fail.
	if err := qa.WriteBytes(mra, 0, []byte("x")); err != ErrNotConnected {
		t.Fatalf("want ErrNotConnected, got %v", err)
	}
	if err := qa.WriteBytes(mrb, 4090, []byte("overflow!")); err != ErrOutOfBounds {
		t.Fatalf("want ErrOutOfBounds, got %v", err)
	}
	if err := qa.WriteBytes(mrb, -1, []byte("x")); err != ErrOutOfBounds {
		t.Fatalf("negative offset: %v", err)
	}
	if err := qa.WriteIndicated(mrb, 4090, []byte("overflow!"), 1, 0, 0x42); err != ErrOutOfBounds {
		t.Fatalf("indicated write past the region: want ErrOutOfBounds, got %v", err)
	}
	if mrb.Words().Load(0) != 0 || mrb.Words().Load(1) != 0 {
		t.Fatal("a rejected indicated write published its indicators")
	}
}

func TestWriteWordAndRead(t *testing.T) {
	qa, _, _, mrb := pair(t, Config{})
	if err := qa.WriteWord(mrb, 3, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	if mrb.Words().Load(3) != 0xDEAD {
		t.Fatal("word not written")
	}
	if err := qa.WriteWord(mrb, 99, 1); err != ErrOutOfBounds {
		t.Fatalf("out-of-range word write: %v", err)
	}
	// One-sided read of bytes + words in a single op.
	copy(mrb.Data()[10:], "payload")
	dst := make([]byte, 7)
	n, words, err := qa.Read(mrb, 10, dst, 3)
	if err != nil || n != 7 {
		t.Fatalf("read: n=%d err=%v", n, err)
	}
	if string(dst) != "payload" || words[0] != 0xDEAD {
		t.Fatalf("read content: %q words=%v", dst, words)
	}
	if _, _, err := qa.Read(mrb, 4000, make([]byte, 200)); err != ErrOutOfBounds {
		t.Fatalf("oob read: %v", err)
	}
	if _, _, err := qa.Read(mrb, 0, dst, -1); err != ErrOutOfBounds {
		t.Fatalf("oob word read: %v", err)
	}
}

func TestWriteIndicatedPublishesInOrder(t *testing.T) {
	qa, _, _, mrb := pair(t, Config{})
	body := []byte("request body")
	const head, tail = 0, 1
	if err := qa.WriteIndicated(mrb, 0, body, tail, head, 0x42); err != nil {
		t.Fatal(err)
	}
	// Poller discipline: head observed => tail and body are visible.
	if mrb.Words().Load(head) != 0x42 || mrb.Words().Load(tail) != 0x42 {
		t.Fatal("indicators not set")
	}
	if !bytes.Equal(mrb.Data()[:len(body)], body) {
		t.Fatal("body not visible after indicator")
	}
}

// TestIndicatorHappensBefore drives a writer and a poller concurrently under
// the race detector: observing the head indicator must guarantee the body is
// fully visible.
func TestIndicatorHappensBefore(t *testing.T) {
	qa, _, _, mrb := pair(t, Config{})
	const head, tail = 0, 1
	const rounds = 2000
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= rounds; i++ {
			// Wait for message i.
			for mrb.Words().Load(head) != uint64(i) {
				runtime.Gosched() // single-core host: let the writer run
			}
			body := mrb.Data()[:8]
			for j, b := range body {
				if b != byte(i) {
					done <- errf("round %d byte %d = %d", i, j, b)
					return
				}
			}
			// Consume: clear indicators (owner side).
			mrb.Words().Store(head, 0)
			mrb.Words().Store(tail, 0)
		}
		done <- nil
	}()
	body := make([]byte, 8)
	for i := 1; i <= rounds; i++ {
		for j := range body {
			body[j] = byte(i)
		}
		// Wait until the poller consumed the previous message.
		for mrb.Words().Load(head) != 0 {
			runtime.Gosched()
		}
		if err := qa.WriteIndicated(mrb, 0, body, tail, head, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func errf(format string, args ...any) error {
	return &testErr{msg: format, args: args}
}

type testErr struct {
	msg  string
	args []any
}

func (e *testErr) Error() string { return e.msg }

func TestSendRecv(t *testing.T) {
	qa, qb, _, _ := pair(t, Config{})
	go func() {
		testutil.Must(qa.Send([]byte("ping")))
	}()
	m, ok := qb.Recv()
	if !ok || string(m) != "ping" {
		t.Fatalf("recv: %q ok=%v", m, ok)
	}
	// TryRecv on empty queue.
	if _, ok := qb.TryRecv(); ok {
		t.Fatal("TryRecv on empty queue succeeded")
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	qa, qb, _, _ := pair(t, Config{})
	msg := []byte("immutable")
	if err := qa.Send(msg); err != nil {
		t.Fatal(err)
	}
	msg[0] = 'X' // mutate after send
	got, _ := qb.Recv()
	if string(got) != "immutable" {
		t.Fatalf("send did not copy: %q", got)
	}
}

func TestCloseSemantics(t *testing.T) {
	f := NewFabric(Config{})
	a, b := f.NewNIC("a"), f.NewNIC("b")
	qa, qb := Connect(a, b, 4)
	if a.QPCount() != 1 || b.QPCount() != 1 {
		t.Fatalf("qp counts: %d %d", a.QPCount(), b.QPCount())
	}
	testutil.Must(qa.Send([]byte("last")))
	qa.Close()
	qa.Close() // double close safe
	if a.QPCount() != 0 {
		t.Fatalf("qp count after close: %d", a.QPCount())
	}
	// Peer drains delivered messages, then observes closure.
	if m, ok := qb.Recv(); !ok || string(m) != "last" {
		t.Fatalf("drain after close: %q %v", m, ok)
	}
	if _, ok := qb.Recv(); ok {
		t.Fatal("recv after close and drain succeeded")
	}
	if err := qb.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send to closed peer: %v", err)
	}
	mrb := b.Register(make([]byte, 64), nil)
	if err := qa.WriteBytes(mrb, 0, []byte("x")); err != ErrClosed {
		t.Fatalf("write on closed qp: %v", err)
	}
	// Closing the other end too tears nothing down twice.
	qb.Close()
	if a.QPCount() != 0 || b.QPCount() != 0 {
		t.Fatalf("qp counts after closing both ends: %d %d", a.QPCount(), b.QPCount())
	}
}

// TestNICAccounting checks that every verb charges exactly one op and its
// payload bytes to both NICs it crosses, whichever end initiates it, that
// concurrent initiators on distinct QPs sum exactly, and that the totals
// survive the connections' Close.
func TestNICAccounting(t *testing.T) {
	const workers, rounds = 4, 200
	body := make([]byte, 100)
	// Each worker w has its own bytes at w*128 and words 2w, 2w+1, so that
	// concurrent writers never overlap.
	verbs := []struct {
		name  string
		bytes int64
		do    func(qp *QP, mr *MemoryRegion, w int) error
	}{
		{"WriteBytes", 100, func(qp *QP, mr *MemoryRegion, w int) error {
			return qp.WriteBytes(mr, w*128, body)
		}},
		{"WriteWord", 8, func(qp *QP, mr *MemoryRegion, w int) error {
			return qp.WriteWord(mr, 2*w, 1)
		}},
		{"WriteIndicated", 100 + 16, func(qp *QP, mr *MemoryRegion, w int) error {
			return qp.WriteIndicated(mr, w*128, body, 2*w+1, 2*w, 1)
		}},
		{"ReadInto", 54, func(qp *QP, mr *MemoryRegion, w int) error {
			_, err := qp.ReadInto(mr, w*128, make([]byte, 54), make([]uint64, 2), 2*w, 2*w+1)
			return err
		}},
		{"Send", 100, func(qp *QP, _ *MemoryRegion, _ int) error {
			return qp.Send(body)
		}},
	}
	for _, v := range verbs {
		t.Run(v.name, func(t *testing.T) {
			f := NewFabric(Config{})
			client, server := f.NewNIC("client"), f.NewNIC("server")
			clientMR := client.Register(make([]byte, 4096), arena.NewWordArea(16, 2))
			serverMR := server.Register(make([]byte, 4096), arena.NewWordArea(16, 2))
			var ends []*QP
			qps := make([]*QP, workers)
			for i := range qps {
				// Deep enough that no Send waits for a receiver.
				qa, qb := Connect(client, server, rounds+2)
				qps[i] = qa
				ends = append(ends, qa, qb)
			}
			expect := func(ops int64) {
				t.Helper()
				for _, n := range []*NIC{client, server} {
					if got := n.Ops.Load(); got != ops {
						t.Fatalf("%s ops = %d, want %d", n.Name(), got, ops)
					}
					if got := n.Bytes.Load(); got != ops*v.bytes {
						t.Fatalf("%s bytes = %d, want %d", n.Name(), got, ops*v.bytes)
					}
				}
			}

			testutil.Must(v.do(qps[0], serverMR, 0))
			expect(1)
			testutil.Must(v.do(ends[1], clientMR, 0)) // from the server's end
			expect(2)

			var wg sync.WaitGroup
			for w, qp := range qps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range rounds {
						if err := v.do(qp, serverMR, w); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			expect(2 + workers*rounds)

			for _, qp := range ends {
				qp.Close()
			}
			expect(2 + workers*rounds)
			if client.QPCount() != 0 || server.QPCount() != 0 {
				t.Fatalf("qp counts after Close: %d %d", client.QPCount(), server.QPCount())
			}
		})
	}
}

func TestNICCeilingThrottles(t *testing.T) {
	// With NICOpNs=200us per op, 20 ops must take >= ~3.8ms.
	f := NewFabric(Config{NICOpNs: 200_000})
	a, b := f.NewNIC("a"), f.NewNIC("b")
	qa, _ := Connect(a, b, 4)
	mrb := b.Register(make([]byte, 64), nil)
	start := time.Now()
	for i := 0; i < 10; i++ {
		testutil.Must(qa.WriteBytes(mrb, 0, []byte("x")))
	}
	// 10 ops, each charged on both NICs serially by one initiator:
	// lower-bound the initiator NIC alone: 10*200us = 2ms.
	if el := time.Since(start); el < 1900*time.Microsecond {
		t.Fatalf("ceiling not enforced: 10 ops in %v", el)
	}
}

func TestQPOverheadGrowsWithConnections(t *testing.T) {
	f := NewFabric(Config{QPThreshold: 2, QPExtraNs: 1000})
	a, b := f.NewNIC("a"), f.NewNIC("b")
	Connect(a, b, 1)
	Connect(a, b, 1)
	if s := a.serviceNs(); s != 0 {
		t.Fatalf("below threshold service = %d", s)
	}
	Connect(a, b, 1)
	Connect(a, b, 1)
	if s := a.serviceNs(); s != 2000 {
		t.Fatalf("above threshold service = %d, want 2000", s)
	}
}

func TestConcurrentWritersDistinctOffsets(t *testing.T) {
	qa, qb, _, mrb := pair(t, Config{})
	_ = qb
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte('A' + w)}, 64)
			for i := 0; i < 200; i++ {
				if err := qa.WriteBytes(mrb, w*64, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 4; w++ {
		seg := mrb.Data()[w*64 : w*64+64]
		for _, c := range seg {
			if c != byte('A'+w) {
				t.Fatalf("segment %d corrupted: %c", w, c)
			}
		}
	}
}

func BenchmarkWriteIndicated64(b *testing.B) {
	qa, _, _, mrb := pair(b, Config{})
	body := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		testutil.Must(qa.WriteIndicated(mrb, 0, body, 1, 0, uint64(i+1)))
		mrb.Words().Store(0, 0)
	}
}

func BenchmarkOneSidedRead64(b *testing.B) {
	qa, _, _, mrb := pair(b, Config{})
	dst := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		testutil.Must2(qa.Read(mrb, 0, dst, 0, 1))
	}
}

// BenchmarkReadIntoParallel is the one-sided GET's verb under parallel load:
// every goroutine has its own client NIC and QP and reads a 54-byte item plus
// its guardian and lease words from one shared server region. Compare
// aggregate ns/op across -cpu 1,2: a verb that wrote a word shared with
// other QPs would make two cores slower than one.
func BenchmarkReadIntoParallel(b *testing.B) {
	f := NewFabric(Config{})
	server := f.NewNIC("server")
	mr := server.Register(make([]byte, 4096), arena.NewWordArea(16, 2))
	b.RunParallel(func(pb *testing.PB) {
		qp, _ := Connect(f.NewNIC("client"), server, 1)
		// A whole cache line each, so the goroutines' buffers do not share one.
		dst := make([]byte, 54, 64)
		words := make([]uint64, 2, 8)
		for pb.Next() {
			if _, err := qp.ReadInto(mr, 64, dst, words, 0, 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkSendRecv64(b *testing.B) {
	qa, qb, _, _ := pair(b, Config{})
	msg := make([]byte, 64)
	go func() {
		for {
			if _, ok := qb.Recv(); !ok {
				return
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		testutil.Must(qa.Send(msg))
	}
	b.StopTimer()
	qa.Close()
}
