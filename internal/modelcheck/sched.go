// Package modelcheck is HydraDB's exhaustive interleaving checker: a
// deterministic, bounded, DPOR-style (sleep-set) scheduler that runs small
// models of the lock-free protocols — guardian-word GET vs. out-of-place PUT,
// lease-based deferred reclamation, the depth-N mailbox slot ring, and the
// replication log's relaxed-ack/rollback rule — under *every* thread
// interleaving up to a bound, asserting the invariants of DESIGN.md §9.
//
// The models are thin drivers over the real implementations in internal/kv,
// internal/lease, internal/message and internal/replication. Each model
// thread is an ordinary goroutine run cooperatively: exactly one thread
// executes at a time, suspended at explicit yield points (Thread.Step /
// Thread.Await), so an execution is fully determined by the sequence of
// scheduling choices. The explorer enumerates those sequences by stateless
// depth-first search with replay: a schedule prefix is re-executed from a
// fresh model instance, the remainder runs under a fixed selection rule, and
// every not-taken choice is pushed for later exploration. Sleep sets
// (Godefroid's partial-order method) prune schedules that only reorder
// adjacent independent steps, with independence declared through step tags.
//
// Under -tags hydradebug the checker can additionally interleave at
// word-access granularity: arena.WordArea routes every Load/Store/CAS through
// invariant.SchedPoint, and an exploring checker in Fine mode suspends the
// running model thread there, exposing torn intermediate states (e.g. a
// mailbox tail indicator published before its head). Production builds
// compile the hook to an empty function.
package modelcheck

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Options bound an exploration.
type Options struct {
	// MaxSteps caps executed steps per schedule (runaway-loop guard).
	// Default 2000.
	MaxSteps int
	// MaxSchedules caps the number of schedules explored. Default 4<<20.
	MaxSchedules int
	// Fine arms word-granularity yield points (requires a hydradebug build;
	// silently ignored otherwise — check FineAvailable).
	Fine bool
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 2000
	}
	if o.MaxSchedules == 0 {
		o.MaxSchedules = 4 << 20
	}
	return o
}

// Violation is a failed invariant plus the schedule that produced it.
type Violation struct {
	// Msg describes the violated invariant.
	Msg string
	// Trace lists the executed steps as "thread:tag", in order.
	Trace []string
	// Schedule is the thread-choice sequence; feed it to Replay to
	// reproduce the violation deterministically.
	Schedule []int
}

// String renders the violation with its replayable trace.
func (v *Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant violated: %s\n", v.Msg)
	for i, s := range v.Trace {
		fmt.Fprintf(&b, "  step %2d  %s\n", i, s)
	}
	fmt.Fprintf(&b, "  replay: %s\n", formatSchedule(v.Schedule))
	return b.String()
}

func formatSchedule(s []int) string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// ParseSchedule parses the comma-separated form printed in violations.
func ParseSchedule(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("modelcheck: bad schedule element %q", f)
		}
		out = append(out, c)
	}
	return out, nil
}

// Result summarizes one exploration.
type Result struct {
	Model     string
	Schedules int
	Steps     int64
	// Truncated reports that a bound (MaxSteps or MaxSchedules) was hit, so
	// the exploration is not a proof over the full space.
	Truncated bool
	Violation *Violation
}

// Model is one checkable protocol model. Setup builds a fresh instance for
// every schedule: it constructs the real protocol objects, spawns the model
// threads, and registers end-of-schedule invariants. With bug=true it seeds
// the deliberate protocol violation described by Bug — the self-test that
// proves the checker can see a broken protocol.
type Model struct {
	Name  string
	Desc  string
	Bug   string
	Setup func(r *Run, bug bool)
}

// Models returns the registered protocol models in display order.
func Models() []Model {
	return []Model{guardianModel, leaseModel, mailboxModel, replicationModel}
}

// Lookup finds a model by name.
func Lookup(name string) (Model, bool) {
	for _, m := range Models() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// Run is one execution of a model under one schedule.
type Run struct {
	threads []*Thread
	atEnd   []func() error
}

// failure is the panic payload of Fail, recovered by the thread wrapper.
type failure struct{ msg string }

// unwind is the panic payload used to abandon suspended threads when a
// schedule ends early (violation, truncation, pruning).
type unwind struct{}

// Spawn registers a model thread and starts it. Spawn returns once the
// thread has reached its first yield point (or finished), so model setup
// stays effectively single-threaded.
func (r *Run) Spawn(name string, body func(t *Thread)) {
	t := &Thread{
		id:      len(r.threads),
		name:    name,
		run:     r,
		resume:  make(chan bool),
		reports: make(chan report),
	}
	r.threads = append(r.threads, t)
	go func() {
		defer func() {
			switch v := recover().(type) {
			case nil:
				t.reports <- report{kind: reportDone}
			case unwind:
				t.reports <- report{kind: reportDone}
			case failure:
				t.reports <- report{kind: reportFail, msg: v.msg}
			default:
				t.reports <- report{kind: reportFail, msg: fmt.Sprintf("model thread %s panicked: %v", t.name, v)}
			}
		}()
		t.gid = goroutineID()
		body(t)
	}()
	t.absorb(<-t.reports)
}

// AtEnd registers an invariant checked when the schedule quiesces (every
// thread done, or every remaining thread blocked). A non-nil error is a
// violation.
func (r *Run) AtEnd(fn func() error) { r.atEnd = append(r.atEnd, fn) }

// Failf aborts the schedule with an invariant violation. It may be called
// from any code executing inside a step (model appliers, hooks); Thread.Fail
// is the conventional entry point.
func (r *Run) Failf(format string, args ...any) {
	panic(failure{fmt.Sprintf(format, args...)})
}

type reportKind int

const (
	reportYield reportKind = iota
	reportDone
	reportFail
)

type report struct {
	kind reportKind
	tag  string
	cond func() bool
	msg  string
}

// Thread is one cooperatively scheduled model thread.
type Thread struct {
	id      int
	name    string
	run     *Run
	resume  chan bool
	reports chan report

	pending *report // declared next step; nil while running or done
	done    bool
	ending  bool // killAll in progress: fine-mode hook must stop yielding
	failMsg string
	gid     int64 // goroutine id under hydradebug (fine-mode filtering)
}

// Step declares one atomic operation on shared state and yields to the
// scheduler; fn runs when (and only when) the scheduler selects this thread.
// tag names the shared state fn touches ("ring", "store", "*" = conflicts
// with everything): two steps with disjoint comma-separated tag sets are
// treated as independent and their reorderings pruned, so an understated tag
// hides interleavings — when unsure, use "*".
func (t *Thread) Step(tag string, fn func()) {
	t.yield(tag, nil)
	fn()
}

// Await is Step gated on an enabling condition: the scheduler selects this
// thread only while cond() returns true. cond must be deterministic,
// side-effect-free, and read only state covered by tag.
func (t *Thread) Await(tag string, cond func() bool, fn func()) {
	t.yield(tag, cond)
	fn()
}

// Fail reports an invariant violation and aborts the schedule.
func (t *Thread) Fail(format string, args ...any) {
	t.run.Failf(format, args...)
}

func (t *Thread) yield(tag string, cond func() bool) {
	t.reports <- report{kind: reportYield, tag: tag, cond: cond}
	if !<-t.resume {
		panic(unwind{})
	}
}

func (t *Thread) absorb(rep report) {
	switch rep.kind {
	case reportYield:
		cp := rep
		t.pending = &cp
	case reportDone:
		t.done = true
		t.pending = nil
	case reportFail:
		t.done = true
		t.pending = nil
		t.failMsg = rep.msg
	}
}

// node is one deferred DFS branch: replay prefix, then the sleep set in
// effect immediately after the prefix's final choice executes.
type node struct {
	prefix []int
	sleep  map[int]string // thread id -> its declared tag when put to sleep
}

// dependent reports whether two step tags conflict: "*" conflicts with
// everything; otherwise the comma-separated sets must intersect.
func dependent(a, b string) bool {
	if a == "*" || b == "*" {
		return true
	}
	if a == b {
		return true
	}
	for _, x := range strings.Split(a, ",") {
		for _, y := range strings.Split(b, ",") {
			if x == y {
				return true
			}
		}
	}
	return false
}

// Explore exhaustively runs model m (with or without its seeded bug) under
// every schedule within the bounds, returning at the first violation.
func Explore(m Model, bug bool, opts Options) Result {
	opts = opts.withDefaults()
	res := Result{Model: m.Name}
	stack := []node{{}}
	for len(stack) > 0 {
		if res.Schedules >= opts.MaxSchedules {
			res.Truncated = true
			break
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out := runSchedule(m, bug, n, opts, &stack)
		res.Schedules++
		res.Steps += int64(out.steps)
		if out.truncated {
			res.Truncated = true
		}
		if out.violation != nil {
			res.Violation = out.violation
			break
		}
	}
	return res
}

// Replay executes exactly one schedule (the recorded choice sequence of a
// violation) and returns its outcome with the full step trace, for
// deterministic reproduction of a reported violation.
func Replay(m Model, bug bool, schedule []int, opts Options) (Result, []string) {
	opts = opts.withDefaults()
	var sink []node
	out := runSchedule(m, bug, node{prefix: schedule}, opts, &sink)
	res := Result{Model: m.Name, Schedules: 1, Steps: int64(out.steps), Truncated: out.truncated, Violation: out.violation}
	return res, out.trace
}

type runOutcome struct {
	steps     int
	truncated bool
	violation *Violation
	trace     []string
}

// runSchedule executes one schedule: a fresh model instance follows
// start.prefix, then the lowest-eligible-thread rule, pushing every sibling
// choice (with its sleep set) onto the DFS stack.
func runSchedule(m Model, bug bool, start node, opts Options, stack *[]node) (out runOutcome) {
	r := &Run{}
	fine := armFine(r, opts.Fine)
	if fine {
		defer disarmFine()
	}
	m.Setup(r, bug)

	var (
		choices []int
		sleep   = map[int]string{}
	)
	defer r.killAll()

	// A thread may fail during Setup (before its first yield).
	for _, t := range r.threads {
		if t.failMsg != "" {
			out.violation = &Violation{Msg: t.failMsg, Trace: out.trace, Schedule: choices}
			return out
		}
	}
	if len(start.prefix) == 0 {
		sleep = cloneSleep(start.sleep)
	}

	for {
		var enabled []int
		allDone := true
		for _, t := range r.threads {
			if t.done {
				continue
			}
			allDone = false
			p := t.pending
			if p == nil {
				continue
			}
			if p.cond == nil || p.cond() {
				enabled = append(enabled, t.id)
			}
		}
		if allDone || len(enabled) == 0 {
			if msg := r.checkEnd(allDone); msg != "" {
				out.violation = &Violation{Msg: msg, Trace: out.trace, Schedule: choices}
			}
			return out
		}

		var cands []int
		for _, id := range enabled {
			if _, asleep := sleep[id]; !asleep {
				cands = append(cands, id)
			}
		}
		if len(cands) == 0 {
			// Every enabled transition is asleep: this path only permutes
			// independent steps of an already-explored schedule.
			return out
		}

		depth := len(choices)
		var chosen int
		if depth < len(start.prefix) {
			chosen = start.prefix[depth]
			if t := r.threads[chosen]; t.done || t.pending == nil {
				panic(fmt.Sprintf("modelcheck: replay diverged: thread %d not runnable at depth %d (nondeterministic model?)", chosen, depth))
			}
		} else {
			chosen = cands[0]
			// Push the siblings right-to-left so DFS visits them in id order;
			// sibling k sleeps on every candidate explored before it.
			for i := len(cands) - 1; i >= 1; i-- {
				alt := cands[i]
				sl := cloneSleep(sleep)
				for _, prev := range cands[:i] {
					sl[prev] = r.threads[prev].pending.tag
				}
				// The sibling's own step executes immediately after the
				// branch; wake whatever it conflicts with now, so the stored
				// set is the one in effect after that step.
				altTag := r.threads[alt].pending.tag
				for id, tg := range sl {
					if dependent(tg, altTag) {
						delete(sl, id)
					}
				}
				pfx := make([]int, 0, len(choices)+1)
				pfx = append(pfx, choices...)
				pfx = append(pfx, alt)
				*stack = append(*stack, node{prefix: pfx, sleep: sl})
			}
		}

		t := r.threads[chosen]
		tag := t.pending.tag
		out.steps++
		if out.steps > opts.MaxSteps {
			out.truncated = true
			return out
		}
		out.trace = append(out.trace, t.name+":"+tag)
		choices = append(choices, chosen)
		t.pending = nil
		setCurrent(t)
		t.resume <- true
		rep := <-t.reports
		clearCurrent()
		t.absorb(rep)
		if t.failMsg != "" {
			out.violation = &Violation{Msg: t.failMsg, Trace: out.trace, Schedule: choices}
			return out
		}

		switch {
		case len(choices) == len(start.prefix):
			// Final prefix choice executed: install the stored sleep set
			// (already woken against that choice's tag at push time).
			sleep = cloneSleep(start.sleep)
		case len(choices) > len(start.prefix):
			for id, tg := range sleep {
				if dependent(tg, tag) {
					delete(sleep, id)
				}
			}
		}
	}
}

func cloneSleep(s map[int]string) map[int]string {
	out := map[int]string{}
	for k, v := range s {
		out[k] = v
	}
	return out
}

// checkEnd evaluates the quiescence invariants; when they pass but threads
// remain blocked, the stall itself is the violation (deadlock).
func (r *Run) checkEnd(allDone bool) string {
	for _, fn := range r.atEnd {
		if err := fn(); err != nil {
			return err.Error()
		}
	}
	if !allDone {
		var stuck []string
		for _, t := range r.threads {
			if !t.done {
				stuck = append(stuck, t.name)
			}
		}
		sort.Strings(stuck)
		return fmt.Sprintf("deadlock: no thread enabled, blocked: %s", strings.Join(stuck, ", "))
	}
	return ""
}

// killAll unwinds every thread still suspended at a yield point so the
// schedule's goroutines terminate before the next schedule starts.
func (r *Run) killAll() {
	for _, t := range r.threads {
		t.ending = true
		for !t.done {
			t.resume <- false
			t.absorb(<-t.reports)
		}
	}
}
