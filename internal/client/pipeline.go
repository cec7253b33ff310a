package client

import (
	"runtime"
	"slices"

	"hydradb/internal/message"
	"hydradb/internal/shard"
)

// Op is one operation of a pipelined batch. Code selects the verb: OpGet,
// OpPut, OpDelete and OpRenewLease run through the engine, and any other
// code fails with ErrRemote without being sent. Val is the OpPut payload.
type Op struct {
	Code message.Op
	Key  []byte
	Val  []byte
}

// KV pairs a key with a value for MultiPut.
type KV struct {
	Key []byte
	Val []byte
}

// Result is the outcome of one pipelined Op. Val aliases the client's
// batch scratch and is valid until the next batch (Pipeline, MultiGet,
// MultiPut or RenewPopular) on this client; Get, Put, Delete and Renew run
// in scratch of their own and leave it intact. Copy it to retain it longer.
type Result struct {
	Val     []byte
	Err     error
	Existed bool
}

// Per-op engine states.
const (
	statePending uint8 = iota // to be routed by the next round
	stateQueued               // waiting in a connection queue
	stateIssued               // request written, response outstanding
	stateDone                 // settled: its Result is final
)

// pipeConn tracks one shard connection inside a round: the op indexes routed
// to it in submission order, an issue cursor, and a completion cursor. The
// response ring is FIFO, so completions match queue order; a mismatched seq
// can only be the stale leftover of an abandoned earlier request and is
// dropped.
type pipeConn struct {
	ep    *shard.Endpoint
	queue []int32
	next  int   // queue index of the next op to issue
	head  int   // queue index of the next completion expected
	stop  error // why issuing stopped (WrongShard or a failed send); nil while it issues
}

// opMeta is an op's request seq and, once it has one, where its value sits
// in the value arena (valLen -1: none).
type opMeta struct {
	seq            uint32
	valOff, valLen int32
}

// pipeScratch is the reusable state of the engine; one batch's worth of
// bookkeeping, grown once and recycled so the steady-state paths do not
// allocate.
type pipeScratch struct {
	results []Result
	state   []uint8
	meta    []opMeta
	conns   []pipeConn
	vals    []byte   // value arena; Result.Val is materialized from it post-pump
	ops     []Op     // the ops of a batch the client builds itself
	outs    [][]byte // MultiGet outputs
}

// singleScratch backs the engine's scratch for a batch of one with arrays
// inside the Client. A single op then touches a few adjacent cache lines
// of the client rather than a dozen scattered ones, which matters because
// its goroutine yields while it polls and may resume on another core.
type singleScratch struct {
	p       pipeScratch
	results [1]Result
	state   [1]uint8
	meta    [1]opMeta
	conns   [1]pipeConn
	queue   [1]int32
}

// init points the scratch's slices at the arrays.
func (s *singleScratch) init() {
	s.p.results, s.p.state, s.p.meta = s.results[:0], s.state[:0], s.meta[:0]
	s.conns[0].queue = s.queue[:0]
	s.p.conns = s.conns[:0]
}

func (p *pipeScratch) reset(n int) {
	p.results = slices.Grow(p.results[:0], n)[:n]
	p.state = slices.Grow(p.state[:0], n)[:n]
	p.meta = slices.Grow(p.meta[:0], n)[:n]
	for i := range p.results {
		p.results[i] = Result{}
		p.state[i] = statePending
		p.meta[i] = opMeta{valLen: -1}
	}
	p.vals = p.vals[:0]
	p.conns = p.conns[:0]
}

// finish settles op i with err.
func (p *pipeScratch) finish(i int32, err error) {
	p.results[i].Err = err
	p.state[i] = stateDone
}

// connFor returns the index of the round's pipeConn for ep, adding one on
// first use. Batches touch a handful of shards, so a linear scan beats any
// map (and allocates nothing).
func (p *pipeScratch) connFor(ep *shard.Endpoint) int {
	for i := range p.conns {
		if p.conns[i].ep == ep {
			return i
		}
	}
	if len(p.conns) < cap(p.conns) {
		// Recycle the slot (and its queue backing) from an earlier round.
		p.conns = p.conns[:len(p.conns)+1]
		pc := &p.conns[len(p.conns)-1]
		pc.ep = ep
		pc.queue = pc.queue[:0]
		pc.next, pc.head, pc.stop = 0, 0, nil
		return len(p.conns) - 1
	}
	p.conns = append(p.conns, pipeConn{ep: ep})
	return len(p.conns) - 1
}

// Pipeline executes a batch of operations with up to the connection's ring
// depth of requests in flight per connection, matching completions by seq.
// Ops are issued per connection strictly in submission order and both
// directions are FIFO, so operations on the same key — which always route to
// the same shard — retain their order, across retry rounds too. A GET whose
// pointer is cached and that no write of the batch precedes completes
// one-sided before any message is sent; a GET behind a write may read that
// write, so it keeps its place in the message order.
//
// The returned slice and the values inside it are scratch, valid until the
// next batch on this client.
func (c *Client) Pipeline(ops []Op) []Result {
	p := &c.pipe
	p.reset(len(ops))
	for i := range ops {
		if ops[i].Code == message.OpPut || ops[i].Code == message.OpDelete {
			break
		}
		if ops[i].Code != message.OpGet {
			continue
		}
		base := len(p.vals)
		if out, ok := c.readCached(ops[i].Key, p.vals); ok {
			p.vals = out
			p.meta[i].valOff, p.meta[i].valLen = int32(base), int32(len(out)-base)
			p.state[i] = stateDone
		}
	}
	c.exec(p, ops)
	// Materialize values last: the arena may have grown (and moved) during
	// the batch, so offsets — not subslices — were recorded along the way.
	for i, m := range p.meta {
		if m.valLen >= 0 && p.results[i].Err == nil {
			p.results[i].Val = p.vals[m.valOff : m.valOff+m.valLen]
		}
	}
	return p.results
}

// do runs one op through the engine as a batch of one, in the single-op
// scratch. A GET's value is appended to dst and the grown slice returned;
// on error dst comes back unchanged.
func (c *Client) do(code message.Op, key, val, dst []byte) ([]byte, error) {
	p := &c.single.p
	p.reset(1)
	p.vals = dst
	ops := [1]Op{{Code: code, Key: key, Val: val}}
	c.exec(p, ops[:])
	out, err := p.vals, p.results[0].Err
	p.vals = nil // keep no reference to the caller's buffer
	if err != nil {
		return dst, err
	}
	return out, nil
}

// exec is the client's one message path (§4.2.1): every op not yet settled
// runs in rounds of route → pump → settle until it settles. It counts each
// op once, here or, for a GET, in readCached.
func (c *Client) exec(p *pipeScratch, ops []Op) {
	for i := range ops {
		switch ops[i].Code {
		case message.OpPut:
			c.ctr.Updates.Inc()
		case message.OpDelete:
			c.ctr.Deletes.Inc()
		case message.OpGet, message.OpRenewLease:
		default:
			p.finish(int32(i), ErrRemote)
		}
	}
	for round := 0; c.route(p, ops); round++ {
		if c.pump(p, ops) || !c.settle(p, ops, round) {
			return
		}
	}
}

// route queues every pending op on its shard's connection, in submission
// order, and reports whether any op was queued. An op that cannot be routed
// (no owner, or a key longer than kv.MaxKeyLen) settles with that error.
func (c *Client) route(p *pipeScratch, ops []Op) bool {
	p.conns = p.conns[:0]
	for i := range ops {
		if p.state[i] != statePending {
			continue
		}
		ep, err := c.endpointFor(ops[i].Key)
		if err != nil {
			p.finish(int32(i), err)
			continue
		}
		ci := p.connFor(ep)
		p.conns[ci].queue = append(p.conns[ci].queue, int32(i))
		p.state[i] = stateQueued
	}
	return len(p.conns) > 0
}

// pump issues and drains the round across all connections until every
// queued op has its response, or its connection stopped, or the request
// timeout expires, and reports whether every op of the round settled. The
// timeout runs on the wall clock from the round's first idle pass, and the
// clock is read again only every 1024 idle passes, so the poll stays off it.
func (c *Client) pump(p *pipeScratch, ops []Op) bool {
	var deadline int64
	spins := 0
	for {
		progress, remaining, stopped := false, false, false
		for ci := range p.conns {
			pc := &p.conns[ci]
			// Issue while the window is open. The credit rule — a new request
			// only after an earlier response was released — keeps both rings
			// overwrite-free with the window at the ring depth.
			for pc.stop == nil && pc.next < len(pc.queue) && pc.next-pc.head < pc.ep.Depth() {
				c.issue(p, pc, ops)
			}
			// Drain every completion already delivered.
			for pc.head < pc.next {
				i := pc.queue[pc.head]
				if p.state[i] != stateIssued { // settled at issue: never sent
					pc.head++
					continue
				}
				body, seq, ok := pc.ep.Poll()
				if !ok {
					break
				}
				// A stale response of an abandoned request, or a frame whose
				// header disagrees with its seq, is released unread. Ours has
				// its value copied out before the release.
				if seq == p.meta[i].seq {
					if resp, err := message.DecodeResponse(body); err == nil && resp.Seq == seq {
						c.complete(p, pc, &ops[i], i, &resp)
						pc.head++
						progress = true
					}
				}
				pc.ep.Release()
			}
			// A stopped conn only waits for its in-flight responses.
			if pc.head < pc.next || (pc.stop == nil && pc.next < len(pc.queue)) {
				remaining = true
			}
			stopped = stopped || pc.stop != nil
		}
		if !remaining {
			return !stopped
		}
		if !progress {
			// Sustained polling (§4.2.1); the deadline covers shard failure.
			if spins++; spins&1023 == 1 {
				if now := c.wall.Now(); deadline == 0 {
					deadline = now + int64(c.opts.RequestTimeout)
				} else if now > deadline {
					return false
				}
			}
			runtime.Gosched()
		}
	}
}

// issue encodes and writes the request of the op at pc.next. A request too
// large for the mailbox settles its own op at once; any other send failure
// stops the connection, and settle re-routes that op and those behind it in
// order.
func (c *Client) issue(p *pipeScratch, pc *pipeConn, ops []Op) {
	i := pc.queue[pc.next]
	op := &ops[i]
	c.seq++
	req := message.Request{Op: op.Code, Seq: c.seq, Epoch: c.table.Epoch, Key: op.Key, Val: op.Val}
	buf := c.encodeBuf(req.EncodedSize())
	n := req.EncodeTo(buf)
	switch err := pc.ep.Send(buf[:n], c.seq); err {
	case nil:
		p.meta[i].seq = c.seq
		p.state[i] = stateIssued
	case message.ErrTooLarge:
		p.finish(i, err)
	default:
		// The request never left, so even a mutation retries safely. A dead
		// shard's revoked mailbox surfaces here, turning a timeout into an
		// immediate reroute.
		pc.stop = err
		return
	}
	pc.next++
}

// encodeBuf returns the request encode scratch with capacity for n bytes.
func (c *Client) encodeBuf(n int) []byte {
	if cap(c.reqBuf) < n {
		c.reqBuf = make([]byte, n)
	}
	return c.reqBuf[:n]
}

// complete records the matched response of op i. A WrongShard bounce
// leaves the op pending and stops its connection; any other status settles
// the op, with a value copied into the arena before the response is
// released.
func (c *Client) complete(p *pipeScratch, pc *pipeConn, op *Op, i int32, resp *message.Response) {
	if resp.Status == message.StatusWrongShard {
		// Epoch-stale: everything behind it on this conn is stale too.
		p.results[i].Err = ErrRetries
		p.state[i] = statePending
		pc.stop = ErrRetries
		return
	}
	p.state[i] = stateDone
	r := &p.results[i]
	switch op.Code {
	case message.OpGet:
		switch resp.Status {
		case message.StatusOK:
			if c.opts.UseRDMARead {
				c.cachePointer(op.Key, resp.Ptr, resp.LeaseExp)
			}
			base := len(p.vals)
			p.vals = append(p.vals, resp.Val...)
			p.meta[i].valOff, p.meta[i].valLen = int32(base), int32(len(resp.Val))
		case message.StatusNotFound:
			r.Err = ErrNotFound
		default:
			r.Err = ErrRemote
		}
	case message.OpPut:
		if resp.Status != message.StatusOK {
			r.Err = ErrRemote
			return
		}
		r.Existed = resp.Existed
		if c.opts.UseRDMARead {
			c.cachePointer(op.Key, resp.Ptr, resp.LeaseExp)
		}
	case message.OpDelete:
		c.cache.Delete(op.Key)
		switch resp.Status {
		case message.StatusOK:
			r.Existed = true
		case message.StatusNotFound:
			r.Err = ErrNotFound
		default:
			r.Err = ErrRemote
		}
	case message.OpRenewLease:
		if resp.Status != message.StatusOK {
			// Outdated or deleted: drop the pointer.
			c.cache.Delete(op.Key)
			r.Err = ErrNotFound
			return
		}
		c.ctr.LeaseRenewals.Inc()
		if c.opts.UseRDMARead {
			c.cachePointer(op.Key, resp.Ptr, resp.LeaseExp)
		}
	}
}

// settle closes a round and reports whether another is due. What the round
// left unanswered becomes pending: an op still in flight timed out, and an
// unissued op takes its connection's stop cause, or the timeout's. Then one
// set of rules settles it:
//   - an issued mutation under AtMostOnceWrites fails with ErrMaybeApplied:
//     its request reached the shard's ring and only the response is
//     missing, so a retry could apply it twice;
//   - with no Refresh, a pending op fails with its cause: ErrRetries
//     (WrongShard), ErrRemote (timeout) or the send error;
//   - otherwise the client refreshes its routing once and the next round
//     re-routes every pending op in submission order, for at most
//     MaxRetries more rounds, after which they fail with ErrRetries.
func (c *Client) settle(p *pipeScratch, ops []Op, round int) bool {
	stranded := false
	for ci := range p.conns {
		pc := &p.conns[ci]
		cause := pc.stop
		if cause == nil { // the round timed out
			cause = ErrRemote
		}
		for _, i := range pc.queue[pc.head:] {
			switch p.state[i] {
			case stateIssued:
				if c.opts.AtMostOnceWrites && mutates(ops[i].Code) {
					p.finish(i, ErrMaybeApplied)
					stranded = true
					continue
				}
				p.results[i].Err = ErrRemote
			case stateQueued:
				p.results[i].Err = cause
			default: // settled at issue
				continue
			}
			p.state[i] = statePending
		}
	}
	pending := slices.Contains(p.state, statePending)
	if c.opts.Refresh != nil && (pending || stranded) {
		// A timeout or a bounce is routing's failure signal: refresh even
		// when only a maybe-applied write is left, so later operations do
		// not re-target a dead shard.
		c.refreshTable()
	}
	retry := pending && c.opts.Refresh != nil
	if retry {
		c.ctr.RoutingRetries.Inc()
	}
	again := retry && round < c.opts.MaxRetries
	for i, st := range p.state {
		if st != statePending {
			continue
		}
		switch {
		case again:
			p.results[i].Err = nil
		case retry:
			p.finish(int32(i), ErrRetries)
		default: // its cause stands
			p.state[i] = stateDone
		}
	}
	return again
}

// MultiGet fetches keys as one pipelined batch. The returned slice holds one
// entry per key — the value, or nil when the key does not exist — and, like
// Pipeline results, is scratch valid until the next batch. The error is the
// first hard failure (not-found is reported as a nil entry, not an error).
func (c *Client) MultiGet(keys [][]byte) ([][]byte, error) {
	p := &c.pipe
	ops := p.ops[:0]
	for _, k := range keys {
		ops = append(ops, Op{Code: message.OpGet, Key: k})
	}
	p.ops = ops
	res := c.Pipeline(ops)
	outs := p.outs[:0]
	var firstErr error
	for i := range res {
		switch {
		case res[i].Err == nil:
			outs = append(outs, res[i].Val)
		case res[i].Err == ErrNotFound:
			outs = append(outs, nil)
		default:
			outs = append(outs, nil)
			if firstErr == nil {
				firstErr = res[i].Err
			}
		}
	}
	p.outs = outs
	return outs, firstErr
}

// MultiPut stores pairs as one pipelined batch and reports the first
// failure.
func (c *Client) MultiPut(pairs []KV) error {
	p := &c.pipe
	ops := p.ops[:0]
	for _, kv := range pairs {
		ops = append(ops, Op{Code: message.OpPut, Key: kv.Key, Val: kv.Val})
	}
	p.ops = ops
	res := c.Pipeline(ops)
	for i := range res {
		if res[i].Err != nil {
			return res[i].Err
		}
	}
	return nil
}
