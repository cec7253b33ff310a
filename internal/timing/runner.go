package timing

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"hydradb/internal/invariant"
)

// Runner owns the goroutines of one server loop: a shard's poll loop (or
// its pipelined stages) and a secondary's drain loop. Each goroutine calls a
// step function and backs off when the step reports no progress. Stop ends
// them all by one close and joins them, so the stop path of every server
// loop lives here once (DESIGN.md §14).
//
// A Runner is started at most once: after Stop, Go spawns a loop that exits
// at once.
type Runner struct {
	label string // instance-scoped spawn-registry prefix
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// NewRunner returns a Runner whose goroutines register under name in the
// hydradebug spawn registry.
func NewRunner(name string) *Runner {
	r := &Runner{stop: make(chan struct{})}
	r.label = fmt.Sprintf("%s/%p/", name, r)
	return r
}

// Go spawns a loop that calls step until Stop. A round whose step reports
// progress resets the backoff; an empty round yields or naps under shape,
// and onNap, when non-nil, runs after each nap: the loop is quiet then, so
// it is where housekeeping goes. A step that blocks on its own input (the
// pipelined workers) selects on Stopping and reports progress, so the loop
// never backs off around it.
func (r *Runner) Go(shape IdleShape, step func() bool, onNap func()) {
	r.wg.Add(1)
	go r.poll(shape, step, onNap)
}

// poll is the body of every server loop goroutine.
func (r *Runner) poll(shape IdleShape, step func() bool, onNap func()) {
	defer r.wg.Done()
	// Deferred after Done, so it runs first: the goroutine leaves the spawn
	// registry before Stop's join returns, and AssertDrained there is exact.
	defer invariant.Spawned(r.label)()
	back := newBackoff(shape)
	var nap *time.Timer
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if step() {
			back.reset()
			continue
		}
		ns := back.idle()
		if ns == 0 {
			// Yield rather than pure-spin: lets clients run between polls.
			runtime.Gosched()
			continue
		}
		// The nap waits on the stop channel too, so Stop does not wait it
		// out. Reset is safe: the timer's channel was drained by the last
		// nap, and a nap cut short by Stop never resets it.
		if nap == nil {
			nap = time.NewTimer(time.Duration(ns))
		} else {
			nap.Reset(time.Duration(ns))
		}
		select {
		case <-nap.C:
		case <-r.stop:
			nap.Stop()
			return
		}
		if onNap != nil {
			onNap()
		}
	}
}

// Stopping returns the channel Stop closes, for a step that blocks.
func (r *Runner) Stopping() <-chan struct{} { return r.stop }

// Stop ends every loop and joins it. It is idempotent, and when no loop was
// started the join returns at once.
func (r *Runner) Stop() {
	r.once.Do(func() { close(r.stop) })
	r.wg.Wait()
	invariant.AssertDrained(r.label)
}
