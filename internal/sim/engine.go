// Package sim is a deterministic discrete-event simulation engine.
//
// The paper's evaluation runs on an 8-machine InfiniBand cluster; the
// development host has two CPU cores, so wall-clock measurement cannot
// exhibit multi-machine scaling. The benchmark harness therefore drives the
// real hydradb data-plane code (stores, caches, replication state machines)
// under *virtual* time: actors schedule work on an event heap, contended
// devices (NICs, shard CPUs, worker pools) are FIFO resources with service
// times, and wires are pure delays. A whole simulated cluster runs on one Engine.
// Runs are exactly reproducible: the heap breaks ties by insertion sequence
// and all randomness flows from seeded sources.
package sim

import (
	"container/heap"
	"math/rand"

	"hydradb/internal/timing"
)

// Engine is the event loop. Not safe for concurrent use: simulations are
// single-threaded by design.
type Engine struct {
	events eventHeap
	clock  *timing.ManualClock
	seq    int64
	rng    *rand.Rand
	ran    int64
}

// NewEngine creates an engine starting at virtual time 0.
func NewEngine(seed int64) *Engine {
	return &Engine{
		clock: timing.NewManualClock(0),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Clock exposes the virtual clock — hand it to kv.Config and friends so the
// data plane lives on simulation time.
func (e *Engine) Clock() *timing.ManualClock { return e.clock }

// Now reports virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.clock.Now() }

// Rand exposes the deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events reports how many events have executed.
func (e *Engine) Events() int64 { return e.ran }

// At schedules fn at absolute virtual time t (clamped to now).
func (e *Engine) At(t int64, fn func()) {
	if t < e.Now() {
		t = e.Now()
	}
	e.seq++
	heap.Push(&e.events, event{t: t, seq: e.seq, fn: fn})
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.Now()+d, fn)
}

// Step executes the next event; false when the heap is empty.
func (e *Engine) Step() bool {
	if e.events.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(event)
	e.clock.Set(ev.t)
	e.ran++
	ev.fn()
	return true
}

// Run executes events until the heap drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, leaving later events queued, and
// advances the clock to t.
func (e *Engine) RunUntil(t int64) {
	for e.events.Len() > 0 && e.events[0].t <= t {
		e.Step()
	}
	e.clock.Set(t)
}

type event struct {
	t   int64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Resource is a FIFO service center with k parallel servers — a NIC, a
// single-threaded shard CPU (k=1), or a worker pool (k=N). Acquire enqueues
// a job of the given service cost and schedules done() at its completion.
type Resource struct {
	eng     *Engine
	name    string
	servers []int64 // busy-until per server
	busyNs  int64   // accumulated service time (utilization accounting)
	jobs    int64
}

// NewResource creates a k-server resource.
func NewResource(e *Engine, name string, k int) *Resource {
	if k <= 0 {
		k = 1
	}
	return &Resource{eng: e, name: name, servers: make([]int64, k)}
}

// Acquire schedules a job of costNs on the earliest-free server and runs
// done at completion.
func (r *Resource) Acquire(costNs int64, done func()) {
	if costNs < 0 {
		costNs = 0
	}
	best := 0
	for i := 1; i < len(r.servers); i++ {
		if r.servers[i] < r.servers[best] {
			best = i
		}
	}
	start := r.eng.Now()
	if r.servers[best] > start {
		start = r.servers[best]
	}
	finish := start + costNs
	r.servers[best] = finish
	r.busyNs += costNs
	r.jobs++
	r.eng.At(finish, done)
}

// BusyNs reports accumulated service time across servers.
func (r *Resource) BusyNs() int64 { return r.busyNs }

// Jobs reports the number of jobs served.
func (r *Resource) Jobs() int64 { return r.jobs }

// Utilization reports busy fraction over elapsed virtual time.
func (r *Resource) Utilization() float64 {
	return r.UtilizationAt(r.eng.Now())
}

// UtilizationAt reports busy fraction over an explicit horizon — callers
// measuring a workload window use its end time rather than whatever
// housekeeping events extended the clock to.
func (r *Resource) UtilizationAt(t int64) float64 {
	if t == 0 {
		return 0
	}
	u := float64(r.busyNs) / float64(t) / float64(len(r.servers))
	if u > 1 {
		u = 1
	}
	return u
}

// Name identifies the resource.
func (r *Resource) Name() string { return r.name }
