package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"hydradb"
)

// clockBase anchors now(); time.Since on a monotonic base costs one clock
// read, not the two time.Now pays.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// ns32 stores a duration as a sample; anything past 2 s is a timed-out
// request and is counted as a failure where it happened.
func ns32(d int64) int32 { return int32(min(d, math.MaxInt32)) }

const (
	loadBatch = 16 // MultiPut batch of the bulk load
	keyLen    = 16
	loaderID  = 0xffff
)

// runConfig is what the command line fixes for one run of one workload.
type runConfig struct {
	seed          int64
	warm, measure time.Duration
	setups        int  // set-ups timed per run; the last one is kept and driven
	passes        int  // passes driven over the kept deployment
	injectCorrupt bool // self-test: the load stores damaged values for 1 key in 64
}

// deployment is a loaded cluster with its run clients open.
type deployment struct {
	db      *hydradb.DB
	clients []*hydradb.Client
	// multiPutNs holds the wall time of every load batch.
	multiPutNs []int32
}

// deploy starts a fresh cluster, bulk-loads every record through one loader
// client and opens the run clients. Its wall time is setup_s.
func deploy(w *workload, s *stream, cfg *runConfig) (*deployment, float64, error) {
	t0 := now()
	db, err := hydradb.Start(w.options(float64(cfg.passes) * (cfg.warm + cfg.measure).Seconds()))
	if err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", w.name, err)
	}
	d := &deployment{db: db, multiPutNs: make([]int32, 0, w.records/loadBatch+1)}
	loader := db.NewClient()
	var (
		keys  [loadBatch][keyLen]byte
		vals  [loadBatch][valueLen]byte
		pairs [loadBatch]hydradb.KV
	)
	for first := int64(0); first < w.records; first += loadBatch {
		n := min(loadBatch, w.records-first)
		for i := int64(0); i < n; i++ {
			idx := first + i
			encodeValue(vals[i][:], idx, loaderID<<48, uint64(cfg.seed))
			if cfg.injectCorrupt && idx%64 == 0 {
				vals[i][9] ^= 0x40
			}
			pairs[i] = hydradb.KV{Key: s.key(keys[i][:], idx), Val: vals[i][:]}
		}
		b0 := now()
		if err := loader.MultiPut(pairs[:n]); err != nil {
			db.Close()
			return nil, 0, fmt.Errorf("load %s at record %d: %w", w.name, first, err)
		}
		d.multiPutNs = append(d.multiPutNs, ns32(now()-b0))
	}
	for i := 0; i < w.clients; i++ {
		d.clients = append(d.clients, db.NewClient())
	}
	return d, float64(now()-t0) / 1e9, nil
}

// deployTimed sets up cfg.setups times and keeps the last deployment. The
// earlier ones are closed and their memory returned to the system outside
// the timed region, so every set-up starts from the same state.
func deployTimed(w *workload, s *stream, cfg *runConfig) (*deployment, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, secs, err := deploy(w, s, cfg)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, secs)
		if i == cfg.setups-1 {
			return d, times, nil
		}
		d.db.Close()
		d = nil // or the arenas stay reachable and nothing is returned
		debug.FreeOSMemory()
	}
}

// clientRun is one client goroutine's record of a pass. Each client owns one
// and nothing else writes to it while the pass runs.
type clientRun struct {
	attempted, failed int64 // the whole pass, warm-up included
	ops               int64 // completed inside the measured window
	start, end        int64 // the window as this client saw it, ns on now()
	get, put          []int32
	late              []int32 // open loop: generator lateness per op
	firstErr          error
	spans             []span // traced pass only
	_                 [64]byte
}

// pass drives every client of d through the workload once: warm-up, then the
// measured window. traced makes every op a span (see trace.go).
func pass(w *workload, s *stream, d *deployment, cfg *runConfig, traced bool) []clientRun {
	runs := make([]clientRun, len(d.clients))
	t0 := now() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for i, c := range d.clients {
		wg.Add(1)
		go func(id int, c *hydradb.Client, r *clientRun) {
			defer wg.Done()
			q := newRequester(s, c, id, id*(len(s.reqs)/len(d.clients)), cfg)
			if w.rate > 0 {
				openLoop(w.rate, q, r, cfg, t0, traced)
			} else {
				closedLoop(q, r, cfg, t0, traced)
			}
		}(i, c, &runs[i])
	}
	wg.Wait()
	return runs
}

// requester walks one client's share of the stream: prepare renders the next
// request, issue sends it, verified judges what came back. Keeping the three
// apart lets a loop put its clock reads around the client call alone.
type requester struct {
	s               *stream
	c               *hydradb.Client
	pos             int
	seed, writerSeq uint64
	keyBuf          [keyLen]byte
	valBuf          [valueLen]byte
	getBuf          []byte

	key   []byte
	idx   int64
	isGet bool
}

func newRequester(s *stream, c *hydradb.Client, id, pos int, cfg *runConfig) *requester {
	return &requester{s: s, c: c, pos: pos, seed: uint64(cfg.seed), writerSeq: uint64(id+1) << 48,
		getBuf: make([]byte, 0, 2*valueLen)}
}

func (q *requester) prepare() {
	rq := q.s.reqs[q.pos]
	if q.pos++; q.pos == len(q.s.reqs) {
		q.pos = 0
	}
	q.idx, q.isGet = int64(rq>>1), rq&1 == 0
	q.key = q.s.key(q.keyBuf[:], q.idx)
	if !q.isGet {
		q.writerSeq++
		encodeValue(q.valBuf[:], q.idx, q.writerSeq, q.seed)
	}
}

func (q *requester) issue() (err error) {
	if q.isGet {
		q.getBuf, err = q.c.GetInto(q.key, q.getBuf[:0])
		return err
	}
	return q.c.Put(q.key, q.valBuf[:])
}

func (q *requester) verified(err error) bool {
	return err == nil && (!q.isGet || checkValue(q.getBuf, q.idx, q.seed))
}

// counterMark is where the client's one-sided counters stood before an op;
// span names the op from how they moved (see getPath).
type counterMark struct{ hits, stale int64 }

func (q *requester) mark() counterMark {
	ctr := q.c.Counters()
	return counterMark{ctr.RDMAReadHits.Load(), ctr.RDMAReadStale.Load()}
}

func (q *requester) span(before counterMark, start, end int64) span {
	name := spanPut
	if q.isGet {
		name = getPath(q.c.Counters(), before.hits, before.stale)
	}
	return span{name: name, start: start, end: end, parent: -1}
}

// done books one finished op: counted, failed or not, and if latencyNs >= 0
// sampled.
func (r *clientRun) done(q *requester, err error, latencyNs int64) {
	r.attempted++
	if !q.verified(err) {
		r.fail(err, q.idx)
	}
	switch {
	case latencyNs < 0:
	case q.isGet:
		r.get = append(r.get, ns32(latencyNs))
	default:
		r.put = append(r.put, ns32(latencyNs))
	}
}

// closedLoop issues the next request as soon as the previous one completes.
// One op in stride is timed (every op when traced); the same clock reads
// drive the phase changes, so untimed ops carry no harness clock cost.
func closedLoop(q *requester, r *clientRun, cfg *runConfig, t0 int64, traced bool) {
	// Room for 3M ops/s per client, several times what the system does, so
	// the loop never grows a slice.
	sampleCap := int(cfg.measure.Seconds() * 3e6)
	if traced {
		r.spans = make([]span, 0, sampleCap)
	} else {
		sampleCap /= stride
	}
	r.get, r.put = make([]int32, 0, sampleCap), make([]int32, 0, sampleCap)
	warmEnd := t0 + int64(cfg.warm)
	measureEnd := warmEnd + int64(cfg.measure)
	var (
		measuring bool
		opsAtOpen int64
		before    counterMark
	)
	for n := int64(0); ; n++ {
		q.prepare()
		if !traced && !sampled(n) {
			r.done(q, q.issue(), -1)
			continue
		}
		if traced {
			before = q.mark()
		}
		tb := now()
		err := q.issue()
		t1 := now()
		if !measuring {
			r.done(q, err, -1)
			if t1 >= warmEnd {
				measuring, r.start, opsAtOpen = true, t1, r.attempted
			}
			continue
		}
		r.done(q, err, t1-tb)
		if traced {
			r.spans = append(r.spans, q.span(before, tb, t1))
		}
		if t1 >= measureEnd {
			r.end, r.ops = t1, r.attempted-opsAtOpen
			return
		}
	}
}

// openLoop sends on a fixed schedule whatever the system does. Latency runs
// from the time a request was due, so a stall is charged to every request it
// delays; lateness is the generator's own delay past the later of the due
// time and the previous completion.
func openLoop(rate int, q *requester, r *clientRun, cfg *runConfig, t0 int64, traced bool) {
	interval := int64(time.Second) / int64(rate)
	warmOps := int64(cfg.warm) / interval
	total := warmOps + int64(cfg.measure)/interval
	r.get, r.put = make([]int32, 0, total), make([]int32, 0, total)
	r.late = make([]int32, 0, total)
	if traced {
		r.spans = make([]span, 0, total)
	}
	r.start = t0 + warmOps*interval
	var prevDone int64
	for n := int64(0); n < total; n++ {
		q.prepare()
		before := q.mark()
		due := t0 + n*interval
		sent := now()
		for sent < due {
			sent = now()
		}
		err := q.issue()
		done := now()
		if n < warmOps {
			r.done(q, err, -1)
		} else {
			r.done(q, err, done-due)
			r.late = append(r.late, ns32(sent-max(due, prevDone)))
			if traced {
				r.spans = append(r.spans, q.span(before, sent, done))
			}
			r.ops++
		}
		prevDone = done
	}
	r.end = max(prevDone, t0+total*interval)
}

func (r *clientRun) fail(err error, keyIdx int64) {
	r.failed++
	if r.firstErr == nil {
		if err == nil {
			err = fmt.Errorf("value of record %d failed verification", keyIdx)
		}
		r.firstErr = err
	}
}
