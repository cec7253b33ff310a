package main

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"hydradb/internal/arena"
	"hydradb/internal/client"
	"hydradb/internal/consistent"
	"hydradb/internal/hashtable"
	"hydradb/internal/hashx"
	"hydradb/internal/kv"
	"hydradb/internal/lfmap"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/replication"
	"hydradb/internal/timing"
)

// The stage table attributes one operation's busy time to the layers it
// crosses. The harness hand-cranks each op path on one goroutine over the
// layers' public constructors and calls, in stage-major batches: a span
// covers stageBatch calls of one stage, so two clock reads are spread over
// sixteen calls and each stage runs with its own code warm. What the table
// cannot contain is the time work waits between layers in the live system
// (poll pick-up, scheduling, wake-up); that is the hand-off, the live path's
// median minus the stage sum.

const (
	stageBatch = 16
	// The same geometry shard.Connect gives a live connection.
	stageSlotBytes = 64 << 10
	stageDepth     = 16
	// ptrCacheBuckets is what hydradb.Start gives a machine's shared cache.
	ptrCacheBuckets = 1 << 14
)

// stageClock is the real clock plus a skew the harness can add, so that a
// timed Get pays the same clock read as the live system while leases can
// still be run out on demand for the reclaim stage.
type stageClock struct {
	real timing.Clock
	skew atomic.Int64
}

func (c *stageClock) Now() int64 { return c.real.Now() + c.skew.Load() }

// tracer collects the spans of one path of the stage table.
type tracer struct{ spans []span }

func (t *tracer) begin(name spanName, parent int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) finish(i int32) { t.spans[i].end = now() }

// stage times fn, which makes stageBatch calls into one layer.
func (t *tracer) stage(name spanName, parent int32, fn func()) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent})
	i := int32(len(t.spans) - 1)
	start := now()
	fn()
	end := now()
	t.spans[i].start, t.spans[i].end = start, end
	return i
}

// stageRig is the set of layer objects one op path needs, wired as
// cluster.New and shard.Connect wire them but driven by hand.
type stageRig struct {
	s     *stream
	seed  uint64
	clock *stageClock
	ring  *consistent.Ring
	store *kv.Store
	// twin and slab take the inserts and allocations replayed as children of
	// Store.Put; the store's own table and arena are not reachable there.
	twin            *hashtable.Table
	twinWant        uint64
	twinMatch       hashtable.MatchFunc
	slab            *arena.Arena
	ptrs            *lfmap.Map[client.PtrEntry]
	arenaMR, bareMR *rdma.MemoryRegion
	qpC, qpS        *rdma.QP
	reqBox, respBox *message.Mailbox
	primary         *replication.Primary // nil without replicas
	secondary       *replication.Secondary
	seq             uint32
	checked, failed int64 // calls whose outcome was checked, and how many were wrong

	// Per-batch scratch, one entry per call of a stage.
	keys     [stageBatch][]byte
	keyBufs  [stageBatch][keyLen]byte
	keyIdx   [stageBatch]int64
	vals     [stageBatch][valueLen]byte
	reqBufs  [stageBatch][128]byte
	respBufs [stageBatch][128]byte
	n        [stageBatch]int
	bodies   [stageBatch][]byte
	reqs     [stageBatch]message.Request
	got      [stageBatch]kv.GetResult
	existed  [stageBatch]bool
	ents     [stageBatch]*client.PtrEntry
	items    [stageBatch][itemBytes]byte
	words    [stageBatch][2]uint64
	out      []byte
	sink     uint64 // keeps results of pure calls alive
}

func newStageRig(w *workload, s *stream, seed int64, updates int) (*stageRig, error) {
	r := &stageRig{s: s, seed: uint64(seed), clock: &stageClock{real: timing.NewRealClock()}}
	var ids []uint32
	for id := 1; id <= w.servers*w.shards; id++ {
		ids = append(ids, uint32(id))
	}
	var err error
	if r.ring, err = consistent.Build(ids, 0); err != nil {
		return nil, err
	}
	items := int(w.records) + updates + stageBatch
	storeCfg := kv.Config{ArenaBytes: items * itemBytes, MaxItems: items, Clock: r.clock}
	r.store = kv.NewStore(storeCfg)
	r.twin = hashtable.New(items / 4)
	r.twinMatch = func(ref uint64) bool { return ref == r.twinWant }
	r.slab = arena.New(1 << 20)
	r.ptrs = lfmap.New[client.PtrEntry](ptrCacheBuckets)

	fabric := rdma.NewFabric(rdma.Config{})
	cNIC, sNIC := fabric.NewNIC("stage-client"), fabric.NewNIC("stage-server")
	r.arenaMR = sNIC.Register(r.store.ArenaData(), r.store.Words())
	r.qpC, r.qpS = rdma.Connect(cNIC, sNIC, stageDepth)
	ringMR := func(nic *rdma.NIC) *rdma.MemoryRegion {
		return nic.Register(make([]byte, stageDepth*stageSlotBytes), arena.NewWordArea(stageDepth, 2))
	}
	r.reqBox = message.NewRing(ringMR(sNIC), 0, stageSlotBytes, stageDepth, 0)
	r.respBox = message.NewRing(ringMR(cNIC), 0, stageSlotBytes, stageDepth, 0)
	r.bareMR = ringMR(sNIC)

	if w.replicas > 0 {
		secNIC := fabric.NewNIC("stage-secondary")
		r.primary = replication.NewPrimary(sNIC, replication.LogConfig{}, 1)
		qpP, qpS := rdma.Connect(sNIC, secNIC, stageDepth)
		log := replication.NewLog(secNIC, replication.LogConfig{})
		ackIdx, err := r.primary.AddSecondary(qpP, log)
		if err != nil {
			return nil, err
		}
		replica := kv.NewStore(storeCfg)
		apply := replication.ApplierFunc(func(_ uint64, rec replication.Record) error {
			_, _, err := replica.Put(rec.Key, rec.Val)
			return err
		})
		r.secondary = replication.NewSecondary(log, apply, qpS, r.primary.AckRegion(), ackIdx)
	}
	return r, nil
}

// fill renders the batch's keys (and the values a PUT batch writes).
func (r *stageRig) fill(keyIdx func(i int) int64) {
	for i := range r.keys {
		r.keyIdx[i] = keyIdx(i)
		r.keys[i] = r.s.key(r.keyBufs[i][:], r.keyIdx[i])
		r.seq++
		encodeValue(r.vals[i][:], r.keyIdx[i], uint64(r.seq), r.seed)
	}
}

func (r *stageRig) check(ok bool) {
	r.checked++
	if !ok {
		r.failed++
	}
}

// twinInsert inserts record idx into the twin table under reference idx+1,
// through one stored MatchFunc as kv.Store does it.
func (r *stageRig) twinInsert(i int) (replaced bool, err error) {
	r.twinWant = uint64(r.keyIdx[i]) + 1
	_, replaced, err = r.twin.Insert(hashx.Hash(r.keys[i]), r.twinWant, r.twinMatch)
	return replaced, err
}

// load inserts every record, timing kv.put_insert with hashtable.insert as
// its replayed child, and arena alloc+free beside them; it also fills the
// pointer cache and, with replicas, the secondary's store.
func (r *stageRig) load(t *tracer, records int64) error {
	var putErr error
	for first := int64(0); first < records; first += stageBatch {
		r.fill(func(i int) int64 { return min(first+int64(i), records-1) })
		b := t.begin(spanBatch, -1)
		put := t.stage(spanKVPutInsert, b, func() {
			for i := range r.keys {
				var err error
				if r.got[i], _, err = r.store.Put(r.keys[i], r.vals[i][:]); err != nil {
					putErr = err
				}
			}
		})
		t.stage(spanTableInsert, put, func() {
			for i := range r.keys {
				_, err := r.twinInsert(i)
				r.check(err == nil)
			}
		})
		t.stage(spanArenaAllocFree, b, func() {
			for range r.keys {
				off, err := r.slab.Alloc(kv.ItemSize(keyLen, valueLen))
				r.check(err == nil)
				r.slab.Free(off, kv.ItemSize(keyLen, valueLen))
			}
		})
		t.finish(b)
		if putErr != nil {
			return fmt.Errorf("stage load: %w", putErr)
		}
		for i := range r.keys {
			r.ptrs.Put(string(r.keys[i]), &client.PtrEntry{Ptr: r.got[i].Ptr, LeaseExp: r.got[i].LeaseExp})
		}
		if err := r.replicate(nil, -1); err != nil {
			return err
		}
	}
	return nil
}

// replicate ships the batch as PUT records and lets the secondary apply and
// acknowledge them, with the non-blocking stepping calls: a single goroutine
// cannot sit in Flush while it is also the secondary. t == nil runs the same
// calls untimed (the load).
func (r *stageRig) replicate(t *tracer, parent int32) error {
	if r.primary == nil {
		return nil
	}
	var repErr error
	steps := []struct {
		name spanName
		fn   func()
	}{
		{spanReplicate, func() {
			for i := range r.keys {
				if err := r.primary.Replicate(replication.Record{Op: message.OpPut, Key: r.keys[i], Val: r.vals[i][:]}); err != nil {
					repErr = err
				}
			}
		}},
		{spanSecondaryPoll, func() {
			for r.secondary.PollOnce() {
			}
		}},
		{spanFlush, func() {
			r.primary.SolicitAcks()
			r.secondary.PollOnce()
			r.primary.PollAcksOnce()
		}},
	}
	for _, st := range steps {
		if t == nil {
			st.fn()
		} else {
			t.stage(st.name, parent, st.fn)
		}
	}
	if repErr != nil {
		return fmt.Errorf("stage replicate: %w", repErr)
	}
	r.check(r.primary.MinAcked() == r.primary.Seq())
	return nil
}

// deliver carries the encoded messages bufs[i][:r.n[i]] through box as the
// live system does — one indicated RDMA Write each, then poll and consume on
// the owner's side — leaving the delivered bodies in r.bodies. The bare verb
// is replayed on a scratch region as the child of the mailbox write.
func (r *stageRig) deliver(t *tracer, b int32, box *message.Mailbox, qp *rdma.QP, bufs *[stageBatch][128]byte) {
	base := r.seq
	write := t.stage(spanMailboxWrite, b, func() {
		for i := range bufs {
			r.check(box.WriteVia(qp, bufs[i][:r.n[i]], base+uint32(i)) == nil)
		}
	})
	t.stage(spanWriteIndicated, write, func() {
		for i := range bufs {
			r.check(r.qpC.WriteIndicated(r.bareMR, i*stageSlotBytes, bufs[i][:r.n[i]], 2*i+1, 2*i, uint64(base)+uint64(i)+1) == nil)
		}
	})
	t.stage(spanMailboxPoll, b, func() {
		for i := range r.bodies {
			var ok bool
			r.bodies[i], _, ok = box.Poll()
			r.check(ok)
			box.Consume()
		}
	})
}

// request runs the stages both message paths share up to the shard's
// dispatch: route, encode, deliver, decode.
func (r *stageRig) request(t *tracer, b int32, op message.Op) {
	t.stage(spanOwner, b, func() {
		for i := range r.keys {
			r.sink += uint64(r.ring.OwnerOfKey(r.keys[i]))
		}
	})
	t.stage(spanEncodeReq, b, func() {
		for i := range r.keys {
			req := message.Request{Op: op, Seq: r.seq + uint32(i), Key: r.keys[i]}
			if op == message.OpPut {
				req.Val = r.vals[i][:]
			}
			r.n[i] = req.EncodeTo(r.reqBufs[i][:])
		}
	})
	r.deliver(t, b, r.reqBox, r.qpC, &r.reqBufs)
	t.stage(spanDecodeReq, b, func() {
		for i := range r.bodies {
			var err error
			r.reqs[i], err = message.DecodeRequest(r.bodies[i])
			r.check(err == nil)
		}
	})
}

// reply runs the stages after the store call: encode the response, deliver
// it, decode it; verify checks decoded response i.
func (r *stageRig) reply(t *tracer, b int32, withValue bool, verify func(i int, resp message.Response) bool) {
	t.stage(spanEncodeResp, b, func() {
		for i := range r.got {
			resp := message.Response{Status: message.StatusOK, Existed: r.existed[i], Seq: r.reqs[i].Seq,
				LeaseExp: r.got[i].LeaseExp, Ptr: r.got[i].Ptr}
			if withValue {
				resp.Val = r.got[i].Value
			}
			r.n[i] = resp.EncodeTo(r.respBufs[i][:])
		}
	})
	r.deliver(t, b, r.respBox, r.qpS, &r.respBufs)
	t.stage(spanDecodeResp, b, func() {
		for i := range r.bodies {
			resp, err := message.DecodeResponse(r.bodies[i])
			r.check(err == nil && resp.Status == message.StatusOK && verify(i, resp))
		}
	})
}

// getBatch is the message GET path.
func (r *stageRig) getBatch(t *tracer, keyIdx func(i int) int64) {
	r.fill(keyIdx)
	b := t.begin(spanBatch, -1)
	r.request(t, b, message.OpGet)
	get := t.stage(spanKVGet, b, func() {
		for i := range r.reqs {
			var ok bool
			r.got[i], ok = r.store.Get(r.reqs[i].Key)
			r.check(ok)
		}
	})
	// The probe alone: hash, bucket walk, signature compare. Accepting the
	// first signature match leaves the key compare in kv.get's self time.
	t.stage(spanTableLookup, get, func() {
		for i := range r.keys {
			ref, _ := r.store.Table().Lookup(hashx.Hash(r.keys[i]), func(uint64) bool { return true })
			r.sink += ref
		}
	})
	r.reply(t, b, true, func(i int, resp message.Response) bool {
		return checkValue(resp.Val, r.keyIdx[i], r.seed)
	})
	t.finish(b)
}

// putBatch is the UPDATE path, with replication where the workload has it.
func (r *stageRig) putBatch(t *tracer, keyIdx func(i int) int64) error {
	r.fill(keyIdx)
	b := t.begin(spanBatch, -1)
	r.request(t, b, message.OpPut)
	if err := r.replicate(t, b); err != nil {
		return err
	}
	put := t.stage(spanKVPutUpdate, b, func() {
		for i := range r.reqs {
			var err error
			r.got[i], r.existed[i], err = r.store.Put(r.reqs[i].Key, r.reqs[i].Val)
			r.check(err == nil && r.existed[i])
		}
	})
	t.stage(spanTableInsert, put, func() {
		for i := range r.keys {
			replaced, err := r.twinInsert(i)
			r.check(err == nil && replaced)
		}
	})
	r.reply(t, b, false, func(int, message.Response) bool { return true })
	t.finish(b)
	return nil
}

// oneSidedBatch is the one-sided GET: pointer cache, RDMA Read of item plus
// guardian and lease words, decode and validate.
func (r *stageRig) oneSidedBatch(t *tracer, keyIdx func(i int) int64) {
	r.fill(keyIdx)
	b := t.begin(spanBatch, -1)
	t.stage(spanLFMapGet, b, func() {
		for i := range r.keys {
			var ok bool
			r.ents[i], ok = r.ptrs.Get(string(r.keys[i]))
			r.check(ok)
		}
	})
	t.stage(spanReadInto, b, func() {
		for i, e := range r.ents {
			_, err := r.qpC.ReadInto(r.arenaMR, int(e.Ptr.DataOff), r.items[i][:e.Ptr.DataLen], r.words[i][:],
				int(e.Ptr.MetaIdx), int(e.Ptr.MetaIdx)+1)
			r.check(err == nil)
		}
	})
	t.stage(spanDecodeItem, b, func() {
		for i, e := range r.ents {
			k, v, ok := kv.DecodeItem(r.items[i][:e.Ptr.DataLen])
			r.out = append(r.out[:0], v...)
			r.check(ok && r.words[i][0] == kv.GuardianLive && bytes.Equal(k, r.keys[i]) &&
				checkValue(r.out, r.keyIdx[i], r.seed))
		}
	})
	t.finish(b)
}

// stageTable is the outcome: per path, the spans and the median self time
// per call of every stage on it.
type stageTable struct {
	load, get, oneSided, put []span
	reclaimNsPerItem         float64
	checked, failed          int64
}

// runStages builds the rig, loads it and cranks batches of each path over
// the keys of the workload's own request stream.
func runStages(w *workload, s *stream, seed int64, batches int) (*stageTable, error) {
	r, err := newStageRig(w, s, seed, batches*stageBatch)
	if err != nil {
		return nil, err
	}
	var load, get, one, put tracer
	if err := r.load(&load, w.records); err != nil {
		return nil, err
	}
	pos := 0
	next := func(int) int64 {
		rq := s.reqs[pos%len(s.reqs)]
		pos++
		return int64(rq >> 1)
	}
	for i := 0; i < batches; i++ {
		r.getBatch(&get, next)
	}
	// One-sided reads come before the updates that would stale the rig's
	// pointers, as a client's would be stale.
	for i := 0; i < batches; i++ {
		r.oneSidedBatch(&one, next)
	}
	for i := 0; i < batches; i++ {
		if err := r.putBatch(&put, next); err != nil {
			return nil, err
		}
	}
	// Run every lease out and time the reclamation of what the updates
	// detached.
	r.clock.skew.Add(120e9)
	t0 := now()
	n := r.store.ReclaimDue()
	perItem := float64(now()-t0) / float64(max(n, 1))
	r.check(n == batches*stageBatch)
	return &stageTable{load: load.spans, get: get.spans, oneSided: one.spans, put: put.spans,
		reclaimNsPerItem: perItem, checked: r.checked, failed: r.failed}, nil
}

// stageMedians returns, per span name, the median self time per call on one
// path and how many spans of that name one batch holds.
func stageMedians(spans []span) (ns [numSpanNames]float64, perBatch [numSpanNames]float64) {
	groups := byName(spans, selfTimes(spans))
	batches := float64(max(len(groups[spanBatch]), 1))
	for name, g := range groups {
		perBatch[name] = float64(len(g)) / batches
		ns[name] = summarize(g).p50 / stageBatch
	}
	return ns, perBatch
}

// stageSum adds up a path: every stage's median self time, as often as the
// stage occurs in one batch (the mailbox stages occur twice, once per
// direction). The batch span's own self time is harness overhead and is
// left out.
func stageSum(ns, perBatch [numSpanNames]float64) float64 {
	sum := 0.0
	for name := range ns {
		if spanName(name) != spanBatch {
			sum += ns[name] * perBatch[name]
		}
	}
	return sum
}
