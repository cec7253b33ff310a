package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hydradb/internal/invariant"
	"hydradb/internal/timing"
)

// Pipelined is the decoupled execution model of Fig. 5(a), implemented as
// the §6.2.1 ablation baseline: dispatcher threads poll connection mailboxes
// and enqueue requests; worker threads process them against the shard's
// store under a mutex and write the responses. Compared to the
// single-threaded shard it burns more cores, pays queue hand-off and lock
// synchronization on every request, and is expected to LOSE — the paper
// measures 27–95% lower throughput for it.
type Pipelined struct {
	shard       *Shard
	dispatchers int

	mu sync.Mutex // serializes store access across workers
	// queues holds one hand-off queue per worker. A connection always hands
	// off to the same worker, so its requests are handled and answered in
	// arrival order: a pipelining client drops an out-of-order response as
	// the stale reply of an abandoned request.
	queues  []chan pipelinedReq
	stop    chan struct{}
	done    chan struct{} // closed when Run (and every stage goroutine) has exited
	started atomic.Bool
	wg      sync.WaitGroup
}

type pipelinedReq struct {
	c    *conn
	body []byte
	seq  uint32
}

// NewPipelined wraps a shard in the pipelined execution model. The shard's
// Run must NOT be used; call Pipelined.Run instead.
func NewPipelined(s *Shard, dispatchers, workers int) *Pipelined {
	if dispatchers <= 0 {
		dispatchers = 2
	}
	if workers <= 0 {
		workers = 2
	}
	p := &Pipelined{
		shard:       s,
		dispatchers: dispatchers,
		queues:      make([]chan pipelinedReq, workers),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for w := range p.queues {
		// Deep enough for 64 connections' full rings at the default depth
		// of 16 to queue behind one worker while it waits for the store
		// lock, so a dispatcher seldom blocks on a hand-off.
		p.queues[w] = make(chan pipelinedReq, 1024)
	}
	return p
}

// Run starts dispatchers and workers and blocks until Stop.
func (p *Pipelined) Run() {
	p.started.Store(true)
	defer close(p.done)
	spawnDone := invariant.Spawned(fmt.Sprintf("pipelined/%p/run", p))
	defer spawnDone()
	for d := 0; d < p.dispatchers; d++ {
		p.wg.Add(1)
		go p.dispatch(d)
	}
	for _, q := range p.queues {
		p.wg.Add(1)
		go p.work(q)
	}
	p.wg.Wait()
}

// dispatch polls a stripe of connections and copies each request into its
// connection's worker queue (the hand-off copy is part of the cost the
// single-threaded design avoids).
func (p *Pipelined) dispatch(stripe int) {
	defer p.wg.Done()
	spawnDone := invariant.Spawned(fmt.Sprintf("pipelined/%p/dispatch/%d", p, stripe))
	defer spawnDone()
	back := timing.NewBackoff(timing.YieldFirst)
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		conns := *p.shard.conns.Load()
		progress := false
		for i := stripe; i < len(conns); i += p.dispatchers {
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
			case p.queues[i%len(p.queues)] <- pipelinedReq{c: c, body: cp, seq: seq}:
			case <-p.stop:
				return
			}
		}
		if progress {
			back.Reset()
		} else {
			back.Idle()
		}
	}
}

// work handles the requests of one queue against the shared store.
func (p *Pipelined) work(queue <-chan pipelinedReq) {
	defer p.wg.Done()
	spawnDone := invariant.Spawned(fmt.Sprintf("pipelined/%p/work", p))
	defer spawnDone()
	respBuf := make([]byte, p.shard.cfg.MailboxBytes)
	handled := 0
	for {
		select {
		case <-p.stop:
			return
		case r := <-queue:
			p.mu.Lock()
			n := p.shard.handle(r.body, respBuf, p.shard.epoch.Load())
			handled++
			if handled%p.shard.cfg.ReclaimEvery == 0 {
				p.shard.store.ReclaimDue()
			}
			// The reply stays inside the critical section: lock hold time
			// per request is part of this baseline's documented cost.
			//hydralint:ignore error-discipline response to a vanished client, as in the live shard loop
			_ = r.c.reply(respBuf[:n], r.seq)
			p.mu.Unlock()
			p.shard.Handled.Inc()
		}
	}
}

// Stop terminates the pipeline and joins every stage goroutine: without the
// join, dispatchers and workers would still be draining while the cluster
// tears down the fabric under them.
func (p *Pipelined) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	if p.started.Load() {
		<-p.done
		invariant.AssertDrained(fmt.Sprintf("pipelined/%p/", p))
	}
}
