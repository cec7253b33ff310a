package shard

import (
	"sync"

	"hydradb/internal/timing"
)

// The decoupled execution model of Fig. 5(a), run under Config.Pipelined as
// the §6.2.1 ablation baseline: dispatcher threads poll connection mailboxes
// and enqueue requests; worker threads process them against the shard's
// store under a mutex and write the responses. Compared to the
// single-threaded shard it burns more cores, pays queue hand-off and lock
// synchronization on every request, and is expected to LOSE — the paper
// measures 27–95% lower throughput for it.
const (
	pipeDispatchers = 2
	pipeWorkers     = 2
	// pipeQueueDepth is deep enough for 64 connections' full rings at the
	// default depth of 16 to queue behind one worker while it waits for the
	// store lock, so a dispatcher seldom blocks on a hand-off.
	pipeQueueDepth = 1024
)

// pipeline is the shared state of one shard's pipelined stages.
type pipeline struct {
	shard *Shard
	stop  <-chan struct{}

	mu sync.Mutex // serializes store access across workers
	// queues holds one hand-off queue per worker. A connection always hands
	// off to the same worker, so its requests are handled and answered in
	// arrival order: a pipelining client drops an out-of-order response as
	// the stale reply of an abandoned request.
	queues  [pipeWorkers]chan pipelinedReq
	handled int // requests handled, under mu
}

type pipelinedReq struct {
	c    *conn
	body []byte
	seq  uint32
}

// startPipelined launches the workers and dispatchers on the shard's
// runner, so Stop and Kill end them by the single-threaded loop's path.
func (s *Shard) startPipelined() {
	p := &pipeline{shard: s, stop: s.loop.Stopping()}
	for w := range p.queues {
		p.queues[w] = make(chan pipelinedReq, pipeQueueDepth)
		s.loop.Go(timing.YieldFirst, p.worker(p.queues[w]), nil)
	}
	for d := 0; d < pipeDispatchers; d++ {
		s.loop.Go(timing.YieldFirst, p.dispatcher(d), nil)
	}
}

// dispatcher returns the step of one dispatcher: it polls a stripe of
// connections and copies each request into its connection's worker queue
// (the hand-off copy is part of the cost the single-threaded design avoids).
func (p *pipeline) dispatcher(stripe int) func() bool {
	return func() bool {
		conns := *p.shard.conns.Load()
		progress := false
		for i := stripe; i < len(conns); i += pipeDispatchers {
			c := conns[i]
			body, seq, ok := c.recv()
			if !ok {
				continue
			}
			progress = true
			cp := make([]byte, len(body))
			copy(cp, body)
			c.release()
			select {
			case p.queues[i%pipeWorkers] <- pipelinedReq{c: c, body: cp, seq: seq}:
			case <-p.stop:
				return true
			}
		}
		return progress
	}
}

// worker returns the step of one worker: it blocks until its queue yields a
// request or the runner stops, and handles the request against the shared
// store. It reports progress either way, so the runner never backs off
// around the blocking receive.
func (p *pipeline) worker(queue <-chan pipelinedReq) func() bool {
	respBuf := make([]byte, p.shard.cfg.MailboxBytes)
	return func() bool {
		select {
		case <-p.stop:
		case r := <-queue:
			p.mu.Lock()
			n := p.shard.handle(r.body, respBuf, p.shard.epoch.Load())
			p.handled++
			if p.handled%p.shard.cfg.ReclaimEvery == 0 {
				p.shard.store.ReclaimDue()
			}
			// The reply stays inside the critical section: lock hold time
			// per request is part of this baseline's documented cost.
			//hydralint:ignore error-discipline response to a vanished client, as in the live shard loop
			_ = r.c.reply(respBuf[:n], r.seq)
			p.mu.Unlock()
			p.shard.Handled.Inc()
		}
		return true
	}
}
