// The harness: build a replicated cluster, run N recording clients against
// it while the injector and the event script tear at the fabric, then
// quiesce and hold the recorded history against the linearizability oracle.
package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hydradb/internal/client"
	"hydradb/internal/cluster"
	"hydradb/internal/history"
	"hydradb/internal/invariant"
	"hydradb/internal/kv"
	"hydradb/internal/testutil"
	"hydradb/internal/timing"
)

// Options configures one chaos run.
type Options struct {
	Schedule Schedule
	// SeededBug silently deletes one acked key after the run (outside the
	// recorded history), proving the checker and lost-write scan can see.
	SeededBug bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Result is the outcome of a chaos run.
type Result struct {
	Schedule   Schedule
	Ops        int64              // client operations completed
	OpErrors   int64              // transient op-level errors (retries exhausted etc.)
	Violation  *history.Violation // nil when every per-key history linearizes
	LostKeys   []string           // keys with an acked write missing at the end
	RecoverNs  []int64            // per ActKill event: crash → promotion, ns
	Promotions int32
	Injected   string       // injector counters, human-readable
	History    []history.Op // the full recorded history (debugging, stats)
	// LeakedGoroutines is the goroutine-count delta after the full cluster
	// teardown settled (0 when every stop path drained).
	LeakedGoroutines int
}

// Failed reports whether the run found a correctness violation.
func (r *Result) Failed() bool {
	return r.Violation != nil || len(r.LostKeys) > 0 || r.LeakedGoroutines > 0
}

// Run executes one chaos run to completion.
func Run(opts Options) (*Result, error) {
	sched := opts.Schedule
	if err := sched.validate(); err != nil {
		return nil, err
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Data-plane clock: a stalled manual clock (leases never expire, lease
	// arithmetic deterministic). Liveness — client timeouts, recovery
	// measurement — runs on the wall clock.
	clk := timing.NewManualClock(1e9)
	baseline := runtime.NumGoroutine()
	cl, err := cluster.New(cluster.Config{
		ServerMachines:   3,
		ClientMachines:   sched.Clients,
		ShardsPerMachine: 1,
		Replicas:         2,
		VNodes:           16,
		Store: kv.Config{
			ArenaBytes: 4 << 20,
			MaxItems:   16384,
			Clock:      clk,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Stop()

	in := NewInjector(sched)
	cl.Fabric().SetFaultHook(in.Hook)
	defer cl.Fabric().SetFaultHook(nil)

	rec := history.NewRecorder()
	res := &Result{Schedule: sched}
	var total, opErrs atomic.Int64

	// Workers: one client per goroutine, a seeded private RNG each, so the
	// workload itself is deterministic per (seed, client).
	var wg sync.WaitGroup
	for w := 0; w < sched.Clients; w++ {
		wg.Add(1)
		rc := &history.RecordingClient{
			C: cl.NewClient(w, client.Options{
				UseRDMARead:    w%2 == 0, // half one-sided readers, half message-only
				RequestTimeout: 150 * time.Millisecond,
				MaxRetries:     30,
				// At-least-once retries re-execute a mutation whose response
				// was lost, which is visible to the oracle as a double write;
				// the harness runs the honest at-most-once mode and records
				// timed-out writes as maybe-applied.
				AtMostOnceWrites: true,
			}),
			R:  rec,
			ID: w,
		}
		go func(w int, rc *history.RecordingClient) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(sched.Seed) + int64(w)))
			key := func() []byte { return []byte(fmt.Sprintf("k%03d", rng.Intn(sched.Keys))) }
			for op := 0; op < sched.Ops; op++ {
				var err error
				switch roll := rng.Intn(100); {
				case roll < 45:
					err = rc.Put(key(), []byte(fmt.Sprintf("c%d-%d", w, op)))
				case roll < 80:
					_, err = rc.Get(key())
				case roll < 85:
					err = rc.Delete(key())
				case roll < 95:
					keys := [][]byte{key(), key(), key()}
					_, err = rc.MultiGet(keys)
				default:
					pairs := []client.KV{
						{Key: key(), Val: []byte(fmt.Sprintf("c%d-%da", w, op))},
						{Key: key(), Val: []byte(fmt.Sprintf("c%d-%db", w, op))},
					}
					err = rc.MultiPut(pairs)
				}
				if err != nil && err != client.ErrNotFound {
					opErrs.Add(1)
				}
				total.Add(1)
			}
		}(w, rc)
	}

	// Controller: fire the event script as the op counter crosses each
	// threshold; measure crash-to-promotion for every kill.
	ctlDone := make(chan struct{})
	workersDone := make(chan struct{})
	go func() { wg.Wait(); close(workersDone) }()
	go func() {
		defer close(ctlDone)
		wall := timing.Wall()
		ids := cl.ShardIDs()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, ev := range sched.Events {
			for total.Load() < ev.AtOp {
				select {
				case <-workersDone:
				default:
					timing.Sleep(1e5)
					continue
				}
				break // workers already done: fire the tail events now
			}
			logf("event %s (ops=%d)", ev.String(), total.Load())
			switch ev.Action {
			case ActKill:
				id := ids[ev.Shard%len(ids)]
				before := cl.Promotions.Load()
				t0 := wall.Now()
				if err := cl.KillShard(id); err != nil {
					logf("kill shard %d: %v", id, err)
					continue
				}
				if testutil.Eventually(15*time.Second, func() bool { return cl.Promotions.Load() > before }) {
					res.RecoverNs = append(res.RecoverNs, wall.Now()-t0)
				} else {
					logf("shard %d never promoted after kill", id)
					res.RecoverNs = append(res.RecoverNs, -1)
				}
			case ActKillLeader:
				dead := cl.SWAT().KillLeader()
				logf("killed SWAT leader %s", dead)
				testutil.Eventually(15*time.Second, func() bool {
					l := cl.SWAT().LeaderName()
					return l != "" && l != dead
				})
			case ActMove:
				id := ids[ev.Shard%len(ids)]
				if err := cl.MoveShard(id, ev.Arg%3); err != nil {
					logf("move shard %d: %v", id, err)
				}
			case ActPartitionSec:
				id := ids[ev.Shard%len(ids)]
				_, secs, err := cl.GroupMachines(id)
				if err != nil || len(secs) == 0 {
					logf("partitionsec shard %d: no secondary (%v)", id, err)
					continue
				}
				in.Partition(fmt.Sprintf("server-%d", secs[0]))
			case ActHeal:
				in.Heal()
			case ActStop:
				id := ids[ev.Shard%len(ids)]
				stopDrain(cl, id, logf)
			case ActCloseAll:
				for _, id := range ids {
					stopDrain(cl, id, logf)
				}
			}
		}
	}()

	<-workersDone
	<-ctlDone
	res.Ops = total.Load()
	res.OpErrors = opErrs.Load()
	res.Promotions = cl.Promotions.Load()

	// Quiesce: no more faults; everything still pending settles.
	in.Quiesce()
	res.Injected = fmt.Sprintf("drops=%d dups=%d reorders=%d delays=%d partition-errs=%d",
		in.Drops.Load(), in.Dups.Load(), in.Reorders.Load(), in.Delays.Load(), in.PartitionErrs.Load())

	if opts.SeededBug {
		corruptOneAckedKey(cl, rec, logf)
	}

	// Final verification reads: a fresh client reads every key on the clean
	// fabric; the reads join the recorded history, so a lost or stale value
	// fails the linearizability check like any other bad read.
	verifier := &history.RecordingClient{
		C:  cl.NewClient(0, client.Options{RequestTimeout: time.Second, MaxRetries: 30}),
		R:  rec,
		ID: sched.Clients,
	}
	finalFound := map[string]bool{}
	for k := 0; k < sched.Keys; k++ {
		key := fmt.Sprintf("k%03d", k)
		_, err := verifier.Get([]byte(key))
		if err != nil && err != client.ErrNotFound {
			return nil, fmt.Errorf("chaos: verification read of %s on quiesced fabric failed: %v", key, err)
		}
		finalFound[key] = err == nil
	}

	ops := rec.Ops()
	res.History = ops
	res.LostKeys = lostAckedWrites(ops, finalFound)
	res.Violation = history.Check(ops)

	// Explicit teardown with leak accounting (the deferred Stop is then a
	// no-op). Every stop path the run exercised — kills, moves, stops, the
	// final Stop — must have drained its goroutines; under -tags hydradebug
	// the spawn registry names any straggler, and the plain-count delta
	// catches leaks even in the default build. The count settles with a
	// grace period: runtime bookkeeping lags the last goroutine exit.
	cl.Stop()
	invariant.AssertDrained("")
	testutil.Eventually(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
	if n := runtime.NumGoroutine() - baseline; n > 0 {
		res.LeakedGoroutines = n
		logf("%d goroutine(s) leaked past cluster teardown", n)
	}

	logf("checked %d recorded ops across %d keys: violation=%v lost=%v leaked=%d",
		len(ops), sched.Keys, res.Violation != nil, res.LostKeys, res.LeakedGoroutines)
	return res, nil
}

// stopDrain gracefully stops a partition — primary, pipeline, secondaries —
// and restarts it in place on its current machine under a new epoch. Errors
// are logged and tolerated: chaos may have the partition mid-promotion.
func stopDrain(cl *cluster.Cluster, id uint32, logf func(string, ...any)) {
	prim, _, err := cl.GroupMachines(id)
	if err != nil {
		logf("stop shard %d: %v", id, err)
		return
	}
	if err := cl.MoveShard(id, prim); err != nil {
		logf("stop shard %d: %v", id, err)
	}
}

// corruptOneAckedKey deletes an acked key through a client the recorder does
// not see, so the key vanishes with no delete in the history — the seeded bug
// the oracle must catch. (Deleting straight from the shard's store would race
// the shard loop that owns it.)
func corruptOneAckedKey(cl *cluster.Cluster, rec *history.Recorder, logf func(string, ...any)) {
	var victim string
	var latest int64
	for _, op := range rec.Ops() {
		if op.Kind == history.KindPut && !op.Err && op.Return > latest {
			victim, latest = op.Key, op.Return
		}
	}
	if victim == "" {
		logf("seeded bug: no acked put to corrupt")
		return
	}
	c := cl.NewClient(0, client.Options{RequestTimeout: time.Second, MaxRetries: 30})
	if err := c.Delete([]byte(victim)); err != nil {
		logf("seeded bug: deleting acked key %s: %v", victim, err)
		return
	}
	logf("seeded bug: silently deleted acked key %s", victim)
}

// lostAckedWrites flags keys whose final verification read observed absence
// although an acked put exists with no delete that could have linearized
// after it. Conservative by construction: only certain losses are reported;
// the linearizability check is the complete oracle.
func lostAckedWrites(ops []history.Op, finalFound map[string]bool) []string {
	lastAck := map[string]int64{} // key -> Invoke of latest acked put
	for _, op := range ops {
		if op.Kind == history.KindPut && !op.Err && op.Invoke > lastAck[op.Key] {
			lastAck[op.Key] = op.Invoke
		}
	}
	var lost []string
	for key, inv := range lastAck {
		if finalFound[key] {
			continue
		}
		excused := false
		for _, op := range ops {
			// Any delete that may linearize after the acked put excuses the
			// absence: still in flight (Infinity), or returned after the
			// put's invocation.
			if op.Kind == history.KindDelete && op.Key == key && op.Return > inv {
				excused = true
				break
			}
		}
		if !excused {
			lost = append(lost, key)
		}
	}
	sort.Strings(lost)
	return lost
}
