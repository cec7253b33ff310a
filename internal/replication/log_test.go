package replication

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hydradb/internal/kv"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/testutil"
	"hydradb/internal/timing"
)

func TestRecordRoundTrip(t *testing.T) {
	f := func(key, val []byte, del bool) bool {
		if len(key) == 0 || len(key) > 500 || len(val) > 500 {
			return true
		}
		op := message.OpPut
		if del {
			op = message.OpDelete
		}
		r := Record{Op: op, Key: key, Val: val}
		buf := make([]byte, r.EncodedSize())
		r.EncodeTo(buf)
		got, err := DecodeRecord(buf)
		return err == nil && got.Op == op && bytes.Equal(got.Key, key) && bytes.Equal(got.Val, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordDecodeMalformed(t *testing.T) {
	if _, err := DecodeRecord(nil); err == nil {
		t.Fatal("nil decoded")
	}
	if _, err := DecodeRecord(make([]byte, 64)); err == nil {
		t.Fatal("zeroed slot decoded")
	}
	r := Record{Op: message.OpGet, Key: []byte("k")} // GET is not replicable
	buf := make([]byte, r.EncodedSize())
	r.EncodeTo(buf)
	if _, err := DecodeRecord(buf); err == nil {
		t.Fatal("non-mutation op decoded")
	}
}

func TestReadyWordEncoding(t *testing.T) {
	f := func(rawSeq uint64, rawSize uint16, flag bool) bool {
		seq := rawSeq & seqMask
		size := int(rawSize & 0x7fff)
		w := makeReady(seq, size, flag)
		gs, gz, gf := splitReady(w)
		return gs == seq && gz == size && gf == flag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// The field edges: the largest slot size and sequence number the word
	// holds, each beside the ack flag and beside an all-zero neighbour.
	const maxSize, maxSeq = 1<<15 - 1, uint64(1)<<48 - 1
	for _, tc := range []struct {
		seq  uint64
		size int
	}{{maxSeq, maxSize}, {maxSeq, 0}, {0, maxSize}, {1, maxSize}, {maxSeq, 1}} {
		for _, flag := range []bool{false, true} {
			if gs, gz, gf := splitReady(makeReady(tc.seq, tc.size, flag)); gs != tc.seq || gz != tc.size || gf != flag {
				t.Fatalf("ready(%d, %d, %v) round-tripped to (%d, %d, %v)", tc.seq, tc.size, flag, gs, gz, gf)
			}
		}
	}
}

func TestAckWordEncoding(t *testing.T) {
	s, c, n := splitAck(makeAck(42))
	if s != 42 || c != 0 || n {
		t.Fatalf("ack: %d %d %v", s, c, n)
	}
	s, c, n = splitAck(makeNack(17, 9))
	if s != 17 || c != 9 || !n {
		t.Fatalf("nack: %d %d %v", s, c, n)
	}
}

// mapApplier applies records into a plain map and tracks sequence order.
type mapApplier struct {
	mu   sync.Mutex
	m    map[string]string
	seqs []uint64
}

func newMapApplier() *mapApplier { return &mapApplier{m: map[string]string{}} }

func (a *mapApplier) Apply(seq uint64, r Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.seqs = append(a.seqs, seq)
	switch r.Op {
	case message.OpPut:
		a.m[string(r.Key)] = string(r.Val)
	case message.OpDelete:
		delete(a.m, string(r.Key))
	}
	return nil
}

func (a *mapApplier) get(k string) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.m[k]
	return v, ok
}

func (a *mapApplier) len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.m)
}

type replEnv struct {
	fabric  *rdma.Fabric
	primary *Primary
	secs    []*Secondary
	apps    []*mapApplier
}

func newReplEnv(t testing.TB, cfg LogConfig, nSecs int) *replEnv {
	t.Helper()
	f := rdma.NewFabric(rdma.Config{})
	pnic := f.NewNIC("primary")
	p := NewPrimary(pnic, cfg, nSecs)
	env := &replEnv{fabric: f, primary: p}
	for i := 0; i < nSecs; i++ {
		snic := f.NewNIC(fmt.Sprintf("sec%d", i))
		qpP, qpS := rdma.Connect(pnic, snic, 8)
		log := NewLog(snic, cfg)
		ackIdx, err := p.AddSecondary(qpP, log)
		if err != nil {
			t.Fatal(err)
		}
		app := newMapApplier()
		sec := NewSecondary(log, app, qpS, p.AckRegion(), ackIdx)
		env.secs = append(env.secs, sec)
		env.apps = append(env.apps, app)
	}
	return env
}

// drain runs secondaries inline until no progress (single-threaded testing).
func (e *replEnv) drain() {
	for {
		progress := false
		for _, s := range e.secs {
			if s.PollOnce() {
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

func put(k, v string) Record {
	return Record{Op: message.OpPut, Key: []byte(k), Val: []byte(v)}
}

func TestReplicateNoSecondariesIsNoop(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	p := NewPrimary(f.NewNIC("p"), LogConfig{}, 2)
	if err := p.Replicate(put("k", "v")); err != nil {
		t.Fatal(err)
	}
	if p.Seq() != 0 {
		t.Fatal("sequence advanced with no secondaries")
	}
}

func TestLoggingReplicationBasic(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}, 1)
	for i := 0; i < 10; i++ {
		if err := env.primary.Replicate(put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		env.drain()
	}
	if got := env.apps[0].len(); got != 10 {
		t.Fatalf("secondary applied %d keys, want 10", got)
	}
	if v, _ := env.apps[0].get("k7"); v != "v7" {
		t.Fatalf("k7 = %q", v)
	}
	// Applied in strict sequence order.
	for i, s := range env.apps[0].seqs {
		if s != uint64(i+1) {
			t.Fatalf("out-of-order apply at %d: %d", i, s)
		}
	}
}

func TestReplicationFanOut(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 32, SlotSize: 128}, 2)
	for i := 0; i < 20; i++ {
		testutil.Must(env.primary.Replicate(put(fmt.Sprintf("k%d", i), "v")))
		env.drain()
	}
	for si, app := range env.apps {
		if app.len() != 20 {
			t.Fatalf("secondary %d applied %d, want 20", si, app.len())
		}
	}
}

func TestDeleteReplicated(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 16, SlotSize: 128}, 1)
	testutil.Must(env.primary.Replicate(put("k", "v")))
	testutil.Must(env.primary.Replicate(Record{Op: message.OpDelete, Key: []byte("k")}))
	env.drain()
	if _, ok := env.apps[0].get("k"); ok {
		t.Fatal("delete not applied")
	}
}

func TestWindowBackpressure(t *testing.T) {
	// Slots=8: the 9th unacked record must block until the secondary drains.
	cfg := LogConfig{Slots: 8, SlotSize: 128, AckEvery: 4}
	env := newReplEnv(t, cfg, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := env.primary.Replicate(put(fmt.Sprintf("k%02d", i), "v")); err != nil {
				t.Error(err)
				return
			}
		}
		if err := env.primary.Flush(); err != nil {
			t.Error(err)
		}
	}()
	// Drain concurrently (the dedicated secondary thread).
	for {
		select {
		case <-done:
			env.drain()
			if env.apps[0].len() != 50 {
				t.Fatalf("applied %d, want 50", env.apps[0].len())
			}
			if env.primary.AckWaits.Load() == 0 {
				t.Fatal("window backpressure never engaged")
			}
			return
		default:
			env.secs[0].PollOnce()
			runtime.Gosched()
		}
	}
}

func TestStrictModeWaitsEveryRecord(t *testing.T) {
	cfg := LogConfig{Slots: 16, SlotSize: 128, Strict: true}
	env := newReplEnv(t, cfg, 1)
	env.secs[0].Start()
	defer env.secs[0].Stop()
	for i := 0; i < 20; i++ {
		if err := env.primary.Replicate(put(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
		// Strict: by the time Replicate returns, the record is applied.
		if got := env.primary.MinAcked(); got != uint64(i+1) {
			t.Fatalf("record %d: minAcked=%d", i, got)
		}
	}
}

func TestFailureRollbackResend(t *testing.T) {
	cfg := LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}
	env := newReplEnv(t, cfg, 1)
	// Inject a single transient failure at seq 6.
	failed := false
	env.secs[0].FailureHook = func(seq uint64, r Record) error {
		if seq == 6 && !failed {
			failed = true
			return fmt.Errorf("injected transient failure")
		}
		return nil
	}
	env.secs[0].Start()
	defer env.secs[0].Stop()
	for i := 0; i < 30; i++ {
		if err := env.primary.Replicate(put(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.primary.Flush(); err != nil {
		t.Fatal(err)
	}
	if env.apps[0].len() != 30 {
		t.Fatalf("applied %d keys, want 30", env.apps[0].len())
	}
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("k%02d", i)
		if v, ok := env.apps[0].get(k); !ok || v != fmt.Sprintf("v%02d", i) {
			t.Fatalf("%s = %q ok=%v", k, v, ok)
		}
	}
	if env.primary.Rollbacks.Load() == 0 {
		t.Fatal("no rollback recorded")
	}
	if env.secs[0].Nacks.Load() == 0 {
		t.Fatal("no nack recorded")
	}
	// Applied sequences: monotone, exactly 1..30 with no gaps once done.
	seen := map[uint64]bool{}
	for _, s := range env.apps[0].seqs {
		seen[s] = true
	}
	for s := uint64(1); s <= 30; s++ {
		if !seen[s] {
			t.Fatalf("sequence %d never applied", s)
		}
	}
}

func TestRepeatedNackKeepsDiscardCount(t *testing.T) {
	// Regression: a doorbell arriving while the secondary awaits a re-send
	// must repeat the nack with the discard count recorded when the slots
	// were zeroed. nack() resets nextSeq to firstFailed, so recomputing the
	// count at repeat time yields 0 — the primary would "re-send" an empty
	// range, mark the nack handled, and the discarded records would be lost
	// until some later doorbell cycle.
	cfg := LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}
	env := newReplEnv(t, cfg, 1)
	sec := env.secs[0]
	failed := false
	sec.FailureHook = func(seq uint64, r Record) error {
		if seq == 5 && !failed {
			failed = true
			return fmt.Errorf("injected transient failure")
		}
		return nil
	}
	// Publish seqs 1..8 before the secondary runs at all: 1..4 apply (4 is
	// acked mid-batch), 5 fails, 6..8 are discarded, and the ack request on
	// 8 publishes nack(firstFailed=5, count=4).
	for i := 0; i < 8; i++ {
		testutil.Must(env.primary.Replicate(put(fmt.Sprintf("k%d", i), "v")))
	}
	for sec.PollOnce() {
	}
	w := sec.ackMR.Words().Load(sec.ackIdx)
	if seq, count, nack := splitAck(w); !nack || seq != 5 || count != 4 {
		t.Fatalf("first nack = (seq=%d count=%d nack=%v), want (5, 4, true)", seq, count, nack)
	}

	// The primary consumes (and clears) the nack, but its re-send has not
	// arrived yet when the next doorbell rings.
	sec.ackMR.Words().Store(sec.ackIdx, 0)
	sec.log.mr.Words().Store(sec.log.doorbellIdx(), 0xDEAD)
	if !sec.PollOnce() {
		t.Fatal("doorbell not processed")
	}
	w = sec.ackMR.Words().Load(sec.ackIdx)
	if seq, count, nack := splitAck(w); !nack || seq != 5 || count != 4 {
		t.Fatalf("repeated nack = (seq=%d count=%d nack=%v), want (5, 4, true)", seq, count, nack)
	}

	// End to end: the primary acts on the repeated nack and recovery
	// converges with every record applied exactly once, in order. Flush
	// blocks until fully acked, so the secondary now runs concurrently.
	sec.Start()
	defer sec.Stop()
	testutil.Must(env.primary.Flush())
	if env.apps[0].len() != 8 {
		t.Fatalf("applied %d records, want 8", env.apps[0].len())
	}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, ok := env.apps[0].get(k); !ok {
			t.Fatalf("record %s lost across the rollback", k)
		}
	}
}

func TestTwoFailuresDifferentSeqs(t *testing.T) {
	cfg := LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}
	env := newReplEnv(t, cfg, 1)
	failedAt := map[uint64]bool{}
	env.secs[0].FailureHook = func(seq uint64, r Record) error {
		if (seq == 5 || seq == 13) && !failedAt[seq] {
			failedAt[seq] = true
			return fmt.Errorf("injected")
		}
		return nil
	}
	env.secs[0].Start()
	defer env.secs[0].Stop()
	for i := 0; i < 40; i++ {
		if err := env.primary.Replicate(put(fmt.Sprintf("k%02d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.primary.Flush(); err != nil {
		t.Fatal(err)
	}
	if env.apps[0].len() != 40 {
		t.Fatalf("applied %d, want 40", env.apps[0].len())
	}
	if env.primary.Rollbacks.Load() < 2 {
		t.Fatalf("rollbacks = %d, want >= 2", env.primary.Rollbacks.Load())
	}
}

func TestFailureWithTwoSecondaries(t *testing.T) {
	cfg := LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}
	env := newReplEnv(t, cfg, 2)
	failed := false
	env.secs[1].FailureHook = func(seq uint64, r Record) error {
		if seq == 3 && !failed {
			failed = true
			return fmt.Errorf("injected")
		}
		return nil
	}
	env.secs[0].Start()
	env.secs[1].Start()
	defer env.secs[0].Stop()
	defer env.secs[1].Stop()
	for i := 0; i < 25; i++ {
		if err := env.primary.Replicate(put(fmt.Sprintf("k%02d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.primary.Flush(); err != nil {
		t.Fatal(err)
	}
	for si, app := range env.apps {
		if app.len() != 25 {
			t.Fatalf("secondary %d applied %d, want 25", si, app.len())
		}
	}
}

func TestRecordTooLarge(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 8, SlotSize: 64}, 1)
	big := Record{Op: message.OpPut, Key: []byte("k"), Val: make([]byte, 128)}
	if err := env.primary.Replicate(big); err != ErrRecordTooLarge {
		t.Fatalf("want ErrRecordTooLarge, got %v", err)
	}
}

func TestGeometryMismatchRejected(t *testing.T) {
	f := rdma.NewFabric(rdma.Config{})
	pnic, snic := f.NewNIC("p"), f.NewNIC("s")
	p := NewPrimary(pnic, LogConfig{Slots: 16, SlotSize: 128}, 1)
	qp, _ := rdma.Connect(pnic, snic, 4)
	log := NewLog(snic, LogConfig{Slots: 32, SlotSize: 128})
	if _, err := p.AddSecondary(qp, log); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestKVApplierIntegration(t *testing.T) {
	// A secondary applying into a real kv.Store — the failover substrate.
	clk := timing.NewManualClock(0)
	store := kv.NewStore(kv.Config{ArenaBytes: 1 << 20, MaxItems: 1024, Clock: clk})
	applier := ApplierFunc(func(seq uint64, r Record) error {
		switch r.Op {
		case message.OpPut:
			_, _, err := store.Put(r.Key, r.Val)
			return err
		case message.OpDelete:
			store.Delete(r.Key)
			return nil
		}
		return fmt.Errorf("bad op")
	})
	f := rdma.NewFabric(rdma.Config{})
	pnic, snic := f.NewNIC("p"), f.NewNIC("s")
	cfg := LogConfig{Slots: 32, SlotSize: 256}
	p := NewPrimary(pnic, cfg, 1)
	qpP, qpS := rdma.Connect(pnic, snic, 4)
	log := NewLog(snic, cfg)
	ackIdx := testutil.Must1(p.AddSecondary(qpP, log))
	sec := NewSecondary(log, applier, qpS, p.AckRegion(), ackIdx)

	for i := 0; i < 100; i++ {
		testutil.Must(p.Replicate(put(fmt.Sprintf("user%04d", i), fmt.Sprintf("val%04d", i))))
		for sec.PollOnce() {
		}
	}
	p.ringBehind(p.seq)
	for sec.PollOnce() {
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 100 {
		t.Fatalf("secondary store has %d items, want 100", store.Len())
	}
	res, ok := store.Get([]byte("user0042"))
	if !ok || string(res.Value) != "val0042" {
		t.Fatalf("user0042: %q %v", res.Value, ok)
	}
	if sec.AppliedSeq() != 100 {
		t.Fatalf("applied seq = %d", sec.AppliedSeq())
	}
}

func BenchmarkLoggingReplicate(b *testing.B) {
	cfg := LogConfig{Slots: 256, SlotSize: 128, AckEvery: 32}
	env := newReplEnv(b, cfg, 1)
	env.secs[0].Start()
	defer env.secs[0].Stop()
	rec := put("user0000000000001", "valuevaluevaluevaluevalueval")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.primary.Replicate(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrictReplicate(b *testing.B) {
	cfg := LogConfig{Slots: 256, SlotSize: 128, Strict: true}
	env := newReplEnv(b, cfg, 1)
	env.secs[0].Start()
	defer env.secs[0].Stop()
	rec := put("user0000000000001", "valuevaluevaluevaluevalueval")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.primary.Replicate(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// secLinkDown installs a fault hook failing every one-sided write whose
// target is the named secondary NIC (a one-way partition of the record
// stream; acks from the secondary still flow).
func secLinkDown(f *rdma.Fabric, secNIC string) {
	f.SetFaultHook(func(v rdma.Verb, local, remote *rdma.NIC, nbytes int) rdma.FaultOutcome {
		if v == rdma.VerbWrite && remote.Name() == secNIC {
			return rdma.FaultOutcome{Err: rdma.ErrInjected}
		}
		return rdma.FaultOutcome{}
	})
}

// TestWriteFailureGapCatchesUp covers the transient-partition hole: a failed
// writeRecord must not leave a permanent gap in the secondary's ring. The
// next successful Replicate has to re-send the missing range first, because
// the secondary consumes strictly in sequence order.
func TestWriteFailureGapCatchesUp(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}, 1)
	for i := 0; i < 3; i++ {
		testutil.Must(env.primary.Replicate(put(fmt.Sprintf("pre%d", i), "v")))
	}
	env.drain()

	secLinkDown(env.fabric, "sec0")
	if err := env.primary.Replicate(put("gap", "lost?")); err == nil {
		t.Fatal("replicate through a dead link succeeded")
	}
	if env.primary.Seq() != 4 {
		t.Fatalf("seq = %d, want 4 (assigned before the failure)", env.primary.Seq())
	}
	env.drain()
	if got := env.secs[0].AppliedSeq(); got != 3 {
		t.Fatalf("applied = %d, want 3 while partitioned", got)
	}

	env.fabric.SetFaultHook(nil) // heal
	testutil.Must(env.primary.Replicate(put("after", "v")))
	env.drain()
	if got := env.secs[0].AppliedSeq(); got != 5 {
		t.Fatalf("applied = %d, want 5 after heal (gap re-sent)", got)
	}
	if v, ok := env.apps[0].get("gap"); !ok || v != "lost?" {
		t.Fatalf("gap record not recovered: %q %v", v, ok)
	}
	// Strictly in-order apply across the gap fill.
	for i, s := range env.apps[0].seqs {
		if s != uint64(i+1) {
			t.Fatalf("out-of-order apply at %d: %d", i, s)
		}
	}
}

// TestFlushCatchesUpGap: Flush alone (promotion / graceful-stop path) must
// repair a write gap, not just wait for acks that can never come.
func TestFlushCatchesUpGap(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}, 1)
	testutil.Must(env.primary.Replicate(put("a", "1")))
	env.drain()

	secLinkDown(env.fabric, "sec0")
	if err := env.primary.Replicate(put("b", "2")); err == nil {
		t.Fatal("replicate through a dead link succeeded")
	}
	env.fabric.SetFaultHook(nil) // heal before flush

	env.secs[0].Start()
	defer env.secs[0].Stop()
	testutil.Must(env.primary.Flush())
	if got := env.secs[0].AppliedSeq(); got != 2 {
		t.Fatalf("applied = %d, want 2 after Flush", got)
	}
}

// TestFlushTimeoutPartitionedSecondary: a bounded flush against a secondary
// that never polls gives up with ErrFlushTimeout instead of spinning forever
// (the chaos stop-drain hang: Shard.Stop → Flush → waitAcked with the mesh
// cut), and succeeds once the secondary drains.
func TestFlushTimeoutPartitionedSecondary(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 16, SlotSize: 128, AckEvery: 4}, 1)
	testutil.Must(env.primary.Replicate(put("a", "1")))

	// The secondary never runs: acks can't arrive. The bounded flush must
	// return promptly with the sentinel rather than hang.
	start := timing.Wall().Now()
	if err := env.primary.FlushTimeout(int64(50 * time.Millisecond)); err != ErrFlushTimeout {
		t.Fatalf("FlushTimeout = %v, want ErrFlushTimeout", err)
	}
	if took := timing.Wall().Now() - start; took > int64(5*time.Second) {
		t.Fatalf("bounded flush took %dns", took)
	}

	// Once the secondary is live and answering doorbells, the same bounded
	// flush succeeds well within its budget.
	env.secs[0].Start()
	defer env.secs[0].Stop()
	if err := env.primary.FlushTimeout(int64(5 * time.Second)); err != nil {
		t.Fatalf("FlushTimeout with live secondary = %v", err)
	}
	if got := env.secs[0].AppliedSeq(); got != 1 {
		t.Fatalf("applied = %d, want 1", got)
	}
}

// TestGapCatchUpWithTwoSecondaries: only the partitioned secondary lags; the
// healthy one keeps receiving, and the catch-up repairs exactly the hole.
func TestGapCatchUpWithTwoSecondaries(t *testing.T) {
	env := newReplEnv(t, LogConfig{Slots: 32, SlotSize: 128, AckEvery: 4}, 2)
	testutil.Must(env.primary.Replicate(put("k0", "v")))
	env.drain()

	secLinkDown(env.fabric, "sec1")
	// The write to sec0 lands before sec1's fails: the record is visible on
	// sec0 even though Replicate reports the failure.
	if err := env.primary.Replicate(put("k1", "v")); err == nil {
		t.Fatal("replicate through a dead link succeeded")
	}
	env.fabric.SetFaultHook(nil)
	testutil.Must(env.primary.Replicate(put("k2", "v")))
	env.drain()
	for si, sec := range env.secs {
		if got := sec.AppliedSeq(); got != 3 {
			t.Fatalf("secondary %d applied %d, want 3", si, got)
		}
	}
}

// TestIdleShapeFollowsStrict pins the one place the drain loop's idle
// policy is chosen: a strict log's secondary answers every put, so it yields
// first like the shard loop; a logging-mode log's secondary naps at once.
func TestIdleShapeFollowsStrict(t *testing.T) {
	for _, tc := range []struct {
		cfg  LogConfig
		want timing.IdleShape
	}{
		{LogConfig{}, timing.NapFirst},
		{LogConfig{Slots: 16, AckEvery: 4}, timing.NapFirst},
		{LogConfig{Strict: true}, timing.YieldFirst},
		{LogConfig{Slots: 16, AckEvery: 4, Strict: true}, timing.YieldFirst},
	} {
		f := rdma.NewFabric(rdma.Config{})
		if got := NewLog(f.NewNIC("sec"), tc.cfg).Config().idleShape(); got != tc.want {
			t.Errorf("%+v: idle shape %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

// TestIdleSecondaryNaps: a started secondary left on an empty log polls a
// bounded number of times. Naps from 10 µs doubling to 1 ms make ~110
// empty polls in 100 ms; a loop that only yields makes millions.
func TestIdleSecondaryNaps(t *testing.T) {
	env := newReplEnv(t, LogConfig{}, 1)
	sec := env.secs[0]
	sec.Start()
	time.Sleep(100 * time.Millisecond)
	sec.Stop()
	got := sec.EmptyPolls.Load()
	t.Logf("idle secondary made %d empty polls in 100ms", got)
	if got == 0 || got > 300 {
		t.Fatalf("idle secondary made %d empty polls in 100ms, want 1..300", got)
	}
}

// TestWindowSurvivesNappingSecondary: a burst of four windows' worth of
// records, replicated back to back into a secondary asleep at its nap cap,
// is applied completely and in order, and Flush confirms it.
func TestWindowSurvivesNappingSecondary(t *testing.T) {
	env := newReplEnv(t, LogConfig{}, 1)
	sec, p := env.secs[0], env.primary
	sec.Start()
	defer sec.Stop()
	// The eighth nap of the logging shape is the first at the 1 ms cap.
	testutil.WaitUntil(t, 5*time.Second, func() bool { return sec.EmptyPolls.Load() >= 10 },
		"secondary never reached its nap cap")

	n := 4 * sec.log.Config().Slots
	for i := 0; i < n; i++ {
		if err := p.Replicate(put(fmt.Sprintf("k%04d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sec.Stop()
	seqs := env.apps[0].seqs
	if len(seqs) != n {
		t.Fatalf("applied %d records, want %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("out-of-order apply at %d: %d", i, s)
		}
	}
	t.Logf("%d records into a %d-slot window cost %d ack waits", n, sec.log.Config().Slots, p.AckWaits.Load())
}

// TestPollRejectsOversizedReadyWord: a ready word whose size exceeds the slot
// is treated like a torn write — the secondary makes no progress and does
// not enter discard mode.
func TestPollRejectsOversizedReadyWord(t *testing.T) {
	cfg := LogConfig{Slots: 8, SlotSize: 64}
	env := newReplEnv(t, cfg, 1)
	sec := env.secs[0]
	sec.log.mr.Words().Store(sec.slotOf(1), makeReady(1, cfg.SlotSize+1, false))
	if sec.PollOnce() {
		t.Fatal("PollOnce made progress on a ready word larger than its slot")
	}
	if sec.failed || sec.Applied.Load() != 0 {
		t.Fatalf("oversized ready word was consumed: failed=%v applied=%d", sec.failed, sec.Applied.Load())
	}
}
