package client

import (
	"runtime"

	"hydradb/internal/message"
	"hydradb/internal/shard"
)

// Op is one operation of a pipelined batch. Code selects the verb (OpGet,
// OpPut, OpDelete pipeline natively; anything else is executed through the
// synchronous path); Val is the OpPut payload.
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
// pipeline scratch arena and is valid until the next pipelined batch; copy
// it to retain it longer.
type Result struct {
	Val     []byte
	Err     error
	Existed bool
}

// Per-op pipeline states.
const (
	statePending uint8 = iota // routed but not yet queued anywhere
	stateQueued               // waiting in a connection queue
	stateIssued               // request written, response outstanding
	stateDone                 // completed inside the pipeline
	stateRetry                // must run through the synchronous path
)

// pipeConn tracks one shard connection inside a batch: the op indexes routed
// to it in submission order, an issue cursor, and a completion cursor. The
// response ring is FIFO, so completions match queue order; a mismatched seq
// can only be the stale leftover of an abandoned earlier request and is
// dropped.
type pipeConn struct {
	ep      *shard.Endpoint
	queue   []int32
	next    int  // queue index of the next op to issue
	head    int  // queue index of the next completion expected
	stopped bool // stop issuing (WrongShard observed: epoch is stale)
}

// pipeScratch is the reusable state behind Pipeline/MultiGet/MultiPut; one
// batch's worth of bookkeeping, grown once and recycled so the steady-state
// pipelined path does not allocate.
type pipeScratch struct {
	results []Result
	state   []uint8
	seqOf   []uint32
	valOff  []int32
	valLen  []int32
	conns   []pipeConn
	vals    []byte // value arena; Result.Val is materialized from it post-pump
	reqBuf  []byte
	ops     []Op     // MultiGet/MultiPut builder
	outs    [][]byte // MultiGet outputs
}

func (p *pipeScratch) reset(n int) {
	p.results = p.results[:0]
	p.state = p.state[:0]
	p.seqOf = p.seqOf[:0]
	p.valOff = p.valOff[:0]
	p.valLen = p.valLen[:0]
	for i := 0; i < n; i++ {
		p.results = append(p.results, Result{})
		p.state = append(p.state, statePending)
		p.seqOf = append(p.seqOf, 0)
		p.valOff = append(p.valOff, 0)
		p.valLen = append(p.valLen, -1)
	}
	p.vals = p.vals[:0]
	p.conns = p.conns[:0]
}

// connFor returns the index of the batch's pipeConn for ep, adding one on
// first use. Batches touch a handful of shards, so a linear scan beats any
// map (and allocates nothing).
func (p *pipeScratch) connFor(ep *shard.Endpoint) int {
	for i := range p.conns {
		if p.conns[i].ep == ep {
			return i
		}
	}
	if len(p.conns) < cap(p.conns) {
		// Recycle the slot (and its queue backing) from an earlier batch.
		p.conns = p.conns[:len(p.conns)+1]
		pc := &p.conns[len(p.conns)-1]
		pc.ep = ep
		pc.queue = pc.queue[:0]
		pc.next, pc.head, pc.stopped = 0, 0, false
		return len(p.conns) - 1
	}
	p.conns = append(p.conns, pipeConn{ep: ep})
	return len(p.conns) - 1
}

// Pipeline executes a batch of operations with up to the connection's ring
// depth of requests in flight per connection, matching completions by seq.
// Ops are issued per connection strictly in submission order and both
// directions are FIFO, so operations on the same key — which always route to
// the same shard — retain their order. Any op the pipeline cannot finish
// (unroutable key, epoch-stale routing, timeout, unsupported verb) falls back
// to the synchronous path with its full retry/refresh machinery, again in
// submission order.
//
// The returned slice and the values inside it are scratch, valid until the
// next pipelined batch on this client.
func (c *Client) Pipeline(ops []Op) []Result {
	p := &c.pipe
	p.reset(len(ops))

	// Route: complete one-sided cache hits immediately, queue message ops on
	// their connection, divert everything the pump cannot carry.
	for i := range ops {
		op := &ops[i]
		switch op.Code {
		case message.OpGet:
			if c.opts.UseRDMARead {
				if ref, e, ok := c.cache.lookup(op.Key); ok {
					base := len(p.vals)
					out, hit, err := c.readViaPointerInto(op.Key, ref, e, p.vals)
					p.vals = out
					if err == nil && hit {
						c.ctr.Gets.Inc()
						c.ctr.RDMAReadHits.Inc()
						ref.touch()
						p.valOff[i] = int32(base)
						p.valLen[i] = int32(len(p.vals) - base)
						p.state[i] = stateDone
						continue
					}
					c.ctr.RDMAReadStale.Inc()
					ref.drop()
				} else {
					c.ctr.PointerMisses.Inc()
				}
			} else {
				c.ctr.PointerMisses.Inc()
			}
		case message.OpPut, message.OpDelete:
		default:
			p.state[i] = stateRetry
			continue
		}
		ep, err := c.endpointFor(op.Key)
		if err != nil {
			p.state[i] = stateRetry
			continue
		}
		ci := p.connFor(ep)
		p.conns[ci].queue = append(p.conns[ci].queue, int32(i))
		p.state[i] = stateQueued
	}

	c.pump(ops)

	// Anything still queued or in flight after the pump retries
	// synchronously, in submission order. Exception: an issued mutation
	// under AtMostOnceWrites must NOT be re-executed — its request reached
	// the shard's ring and only the response is missing, so a retry could
	// apply it a second time. It fails with the honest ambiguity instead.
	refreshed := false
	for i := range ops {
		if st := p.state[i]; st == stateQueued || st == stateIssued {
			if st == stateIssued && c.opts.AtMostOnceWrites &&
				(ops[i].Code == message.OpPut || ops[i].Code == message.OpDelete) {
				p.results[i].Err = ErrMaybeApplied
				p.state[i] = stateDone
				// A stranded response means the target may be dead: refresh
				// routing once so later operations do not re-target it.
				if !refreshed && c.opts.Refresh != nil {
					c.refreshTable()
					refreshed = true
				}
				continue
			}
			p.state[i] = stateRetry
		}
	}
	for i := range ops {
		if p.state[i] != stateRetry {
			continue
		}
		op := &ops[i]
		switch op.Code {
		case message.OpGet:
			c.ctr.Gets.Inc()
			base := len(p.vals)
			out, err := c.getViaMessage(op.Key, p.vals)
			p.vals = out
			if err != nil {
				p.results[i].Err = err
			} else {
				p.valOff[i] = int32(base)
				p.valLen[i] = int32(len(p.vals) - base)
			}
		case message.OpPut:
			p.results[i].Err = c.Put(op.Key, op.Val)
		case message.OpDelete:
			p.results[i].Err = c.Delete(op.Key)
		case message.OpRenewLease:
			p.results[i].Err = c.Renew(op.Key)
		default:
			p.results[i].Err = ErrRemote
		}
	}

	// Materialize values last: the arena may have grown (and moved) during
	// the batch, so offsets — not subslices — were recorded along the way.
	for i := range p.results {
		if p.valLen[i] >= 0 && p.results[i].Err == nil {
			p.results[i].Val = p.vals[p.valOff[i] : p.valOff[i]+p.valLen[i]]
		}
	}
	return p.results
}

// pump issues and drains the batch across all connections until every
// queued op completes or the request timeout expires.
//
// hydralint:hotpath
func (c *Client) pump(ops []Op) {
	p := &c.pipe
	deadline := c.wall.Now() + int64(c.opts.RequestTimeout)
	for {
		progress := false
		remaining := false
		for ci := range p.conns {
			pc := &p.conns[ci]
			// Issue while the window is open. The credit rule — a new request
			// only after an earlier response was released — keeps both rings
			// overwrite-free with the window at the ring depth.
			for !pc.stopped && pc.next < len(pc.queue) && pc.next-pc.head < pc.ep.Depth() {
				i := pc.queue[pc.next]
				if c.issueOne(pc, &ops[i], int(i)) {
					progress = true
				}
				pc.next++
			}
			// Drain every completion already delivered.
			for pc.head < pc.next {
				i := pc.queue[pc.head]
				if i < 0 { // hole: issue failed, op went to the retry path
					pc.head++
					continue
				}
				body, seq, ok := pc.ep.Poll()
				if !ok {
					break
				}
				if seq != p.seqOf[i] {
					// Stale leftover of an abandoned request: drop it.
					pc.ep.Release()
					continue
				}
				resp, derr := message.DecodeResponse(body)
				if derr != nil || resp.Seq != p.seqOf[i] {
					pc.ep.Release()
					continue
				}
				c.completeOne(pc, &ops[i], int(i), &resp)
				pc.ep.Release()
				pc.head++
				progress = true
			}
			// A stopped conn only waits for in-flight responses; its unissued
			// tail is already destined for the retry path.
			if pc.head < pc.next || (!pc.stopped && pc.head < len(pc.queue)) {
				remaining = true
			}
		}
		if !remaining {
			return
		}
		if !progress {
			if c.wall.Now() > deadline {
				return
			}
			runtime.Gosched()
		}
	}
}

// issueOne encodes and writes one request; on a transport error the op is
// diverted to the retry path and its queue slot becomes a hole.
//
// hydralint:hotpath
func (c *Client) issueOne(pc *pipeConn, op *Op, i int) bool {
	p := &c.pipe
	c.seq++
	c.getReq = message.Request{Op: op.Code, Seq: c.seq, Epoch: c.table.Epoch, Key: op.Key, Val: op.Val}
	p.seqOf[i] = c.seq
	buf := c.pipeReqBuf(c.getReq.EncodedSize())
	n := c.getReq.EncodeTo(buf)
	c.getReq.Key = nil
	c.getReq.Val = nil
	if err := pc.ep.Send(buf[:n], p.seqOf[i]); err != nil {
		p.state[i] = stateRetry
		pc.queue[pc.next] = -1
		return false
	}
	p.state[i] = stateIssued
	return true
}

// pipeReqBuf returns the pipeline encode scratch with capacity for n bytes.
func (c *Client) pipeReqBuf(n int) []byte {
	if cap(c.pipe.reqBuf) < n {
		c.pipe.reqBuf = make([]byte, n)
	}
	return c.pipe.reqBuf[:n]
}

// completeOne records one matched response. The value is copied into the
// batch arena before the response is released; op-type counters are
// charged here — completion time — so pipelined and fallback executions
// count exactly once each.
func (c *Client) completeOne(pc *pipeConn, op *Op, i int, resp *message.Response) {
	p := &c.pipe
	if resp.Status == message.StatusWrongShard {
		// Epoch-stale: everything behind it on this conn is stale too.
		// Stop issuing and let the retry path refresh the table.
		c.ctr.RoutingRetries.Inc()
		p.state[i] = stateRetry
		pc.stopped = true
		return
	}
	p.state[i] = stateDone
	r := &p.results[i]
	switch op.Code {
	case message.OpGet:
		c.ctr.Gets.Inc()
		switch resp.Status {
		case message.StatusOK:
			if c.opts.UseRDMARead {
				c.cachePointer(op.Key, resp.Ptr, resp.LeaseExp)
			}
			base := len(p.vals)
			p.vals = append(p.vals, resp.Val...)
			p.valOff[i] = int32(base)
			p.valLen[i] = int32(len(resp.Val))
		case message.StatusNotFound:
			r.Err = ErrNotFound
		default:
			r.Err = ErrRemote
		}
	case message.OpPut:
		c.ctr.Updates.Inc()
		if resp.Status != message.StatusOK {
			r.Err = ErrRemote
			return
		}
		r.Existed = resp.Existed
		if c.opts.UseRDMARead {
			c.cachePointer(op.Key, resp.Ptr, resp.LeaseExp)
		}
	case message.OpDelete:
		c.ctr.Deletes.Inc()
		c.cache.Delete(op.Key)
		switch resp.Status {
		case message.StatusOK:
			r.Existed = true
		case message.StatusNotFound:
			r.Err = ErrNotFound
		default:
			r.Err = ErrRemote
		}
	}
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
