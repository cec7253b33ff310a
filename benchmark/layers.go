package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"hydradb/internal/stats"
)

// snapshot is every counter the layers already keep, read from outside them
// at one instant. Deltas between two snapshots around a pass give the
// per-layer counts; nothing inside the layers changes for the benchmark.
type snapshot struct {
	wall, cpu                    float64 // seconds
	shards                       stats.OpSnapshot
	handled                      int64
	nicOps, nicBytes             int64
	replications, replRollbacks  int64
	secondaryApplied, replLagEnd int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // proc.* read zero; nothing else depends on it
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func takeSnapshot(w *workload, d *deployment) snapshot {
	cl := d.db.Cluster()
	s := snapshot{wall: float64(now()) / 1e9, cpu: cpuSeconds(), shards: d.db.Stats(),
		secondaryApplied: cl.SecondaryAppliedTotal()}
	nic := cl.ClientNIC(0)
	s.nicOps, s.nicBytes = nic.Ops.Load(), nic.Bytes.Load()
	for m := 0; m < w.servers; m++ {
		nic := cl.ServerNIC(m)
		s.nicOps += nic.Ops.Load()
		s.nicBytes += nic.Bytes.Load()
	}
	for _, id := range d.db.ShardIDs() {
		sh := cl.Shard(id)
		s.handled += sh.Handled.Load()
		if p := sh.Primary(); p != nil {
			s.replications += p.Replications.Load()
			s.replRollbacks += p.Rollbacks.Load()
		}
	}
	return s
}

// minSamples is the fewest samples a median is taken seriously from.
const minSamples = 1000

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// runTraced produces the per-layer metrics. The seconds of a run are split:
// two fifths for an untraced pass whose counters are read afterwards, two
// fifths for a traced pass over the same cluster, stream and clients with
// every op a span, one fifth idle; the stage table follows on its own rig.
func runTraced(w *workload, cfg *runConfig, traceOut string) (*result, error) {
	tc := *cfg
	tc.measure = cfg.measure * 2 / 5
	tc.warm = min(cfg.warm, time.Second)
	tc.setups, tc.passes = 1, 2
	s, err := newStream(w, tc.seed, streamLen(w, &tc))
	if err != nil {
		return nil, err
	}
	d, _, err := deployTimed(w, s, &tc)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, streamHash: s.hash}

	before := takeSnapshot(w, d)
	plainRuns := pass(w, s, d, &tc, false)
	after := takeSnapshot(w, d)
	var cli stats.OpSnapshot
	for _, c := range d.clients {
		cli.Add(c.Counters().Snapshot())
	}
	ptrEntries := d.clients[0].Cache().Len()
	plain := summarizePass(w, plainRuns, res)

	tracedRuns := pass(w, s, d, &tc, true)
	traced := summarizePass(w, tracedRuns, res)

	// No traffic for a fifth of the run, to see what idle shards cost.
	idle0 := takeSnapshot(w, d)
	time.Sleep(max(cfg.measure/5, 200*time.Millisecond))
	end := takeSnapshot(w, d)
	d.db.Close()

	// Store internals are the shard goroutines' alone while they run; read
	// them only now that Close has joined them.
	var pending, overflow, liveBytes int
	for _, id := range d.db.ShardIDs() {
		sh := d.db.Cluster().Shard(id)
		st := sh.Store()
		pending += st.PendingReclaims()
		liveBytes += st.ArenaLive()
		overflow += st.Table().OverflowBuckets()
		if p := sh.Primary(); p != nil {
			end.replLagEnd += int64(p.Seq() - p.MinAcked())
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	// Whole-pass figures: warm-up and window together, which is what the
	// counters cover.
	passOps := attemptedIn(plainRuns)
	passSecs := after.wall - before.wall
	sh := after.shards
	shBefore := before.shards
	res.add("client.onesided_hit_share", share(cli.RDMAReadHits, cli.Gets), "share", int(cli.Gets))
	res.add("client.onesided_stale_share", share(cli.RDMAReadStale, cli.RDMAReadHits+cli.RDMAReadStale), "share", int(cli.RDMAReadHits+cli.RDMAReadStale))
	res.add("client.pointer_miss_share", share(cli.PointerMisses, cli.Gets), "share", int(cli.Gets))
	res.add("client.routing_retries", float64(cli.RoutingRetries), "count", 0)
	res.add("client.ptrcache_entries", float64(ptrEntries), "count", 0)
	res.add("client.get_p999_us", plain.get.p999/1e3, "us", plain.get.n)
	res.add("client.put_p999_us", plain.put.p999/1e3, "us", plain.put.n)
	res.add("shard.handled_per_s", float64(after.handled-before.handled)/passSecs, "1/s", 0)
	res.add("shard.msg_gets", float64(sh.Gets-shBefore.Gets), "count", 0)
	res.add("shard.updates", float64(sh.Updates-shBefore.Updates), "count", 0)
	res.add("shard.inserts", float64(sh.Inserts-shBefore.Inserts), "count", 0)
	res.add("shard.idle_cpu_pct", 100*(end.cpu-idle0.cpu)/(end.wall-idle0.wall), "%", 0)
	res.add("kv.reclaims_per_s", float64(sh.Reclaims-shBefore.Reclaims)/passSecs, "1/s", 0)
	res.add("kv.pending_reclaims_end", float64(pending), "count", 0)
	res.add("arena.live_mb_end", float64(liveBytes)/1e6, "MB", 0)
	res.add("hashtable.overflow_buckets_end", float64(overflow), "count", 0)
	// Every verb is charged to both NICs it crosses.
	res.add("rdma.verbs_per_op", float64(after.nicOps-before.nicOps)/2/float64(passOps), "count", int(passOps))
	res.add("rdma.bytes_per_op", float64(after.nicBytes-before.nicBytes)/2/float64(passOps), "B", int(passOps))
	res.add("replication.records_per_put", share(after.replications-before.replications, sh.Updates+sh.Inserts-shBefore.Updates-shBefore.Inserts), "count", 0)
	res.add("replication.rollbacks", float64(end.replRollbacks), "count", 0)
	res.add("replication.lag_end", float64(end.replLagEnd), "count", 0)
	res.add("replication.secondary_applied", float64(after.secondaryApplied-before.secondaryApplied), "count", 0)
	res.add("proc.sys_mb_end", float64(mem.Sys)/1e6, "MB", 0)
	res.add("proc.cpu_s_per_mop", (after.cpu-before.cpu)/(float64(passOps)/1e6), "s", int(passOps))
	res.add("gen.late_p99_us", plain.lateP99/1e3, "us", 0)
	sleepUs, nowNs := calibrate()
	res.add("timing.sleep_10us_actual_us", sleepUs, "us", 0)
	res.add("timing.now_ns", nowNs, "ns", 0)
	res.add("host.nproc", float64(runtime.NumCPU()), "count", 0)

	// Live traced pass: latency by the path each op took.
	var live []span
	for i := range tracedRuns {
		live = append(live, tracedRuns[i].spans...)
	}
	byPath := byName(live, durations(live))
	oneSided, viaMsg := summarize(byPath[spanGetOneSided]), summarize(byPath[spanGetMessage])
	stale, put := summarize(byPath[spanGetStale]), summarize(byPath[spanPut])
	res.add("client.get_onesided_p50_ns", oneSided.p50, "ns", oneSided.n)
	res.add("client.get_onesided_p99_ns", oneSided.p99, "ns", oneSided.n)
	res.add("client.get_message_p50_ns", viaMsg.p50, "ns", viaMsg.n)
	res.add("client.get_message_p99_ns", viaMsg.p99, "ns", viaMsg.n)
	res.add("client.get_stale_p50_ns", stale.p50, "ns", stale.n)
	res.add("client.put_p50_ns", put.p50, "ns", put.n)
	res.add("client.put_p99_ns", put.p99, "ns", put.n)
	multiPut := summarize(d.multiPutNs)
	res.add("client.multiput16_ns_per_op", multiPut.p50/loadBatch, "ns", multiPut.n)
	res.add("trace.overhead_share", 1-traced.opsPerS/plain.opsPerS, "share", 0)

	// Stage table.
	batches := 1500
	if tc.measure < time.Second {
		batches = 100 // smoke
	}
	st, err := runStages(w, s, tc.seed, batches)
	if err != nil {
		return nil, err
	}
	res.attempted += st.checked
	res.failed += st.failed
	if st.failed > 0 && res.firstErr == nil {
		res.firstErr = fmt.Errorf("stage table: %d calls failed or returned wrong data", st.failed)
	}
	get, getN := stageMedians(st.get)
	putS, putN := stageMedians(st.put)
	one, oneN := stageMedians(st.oneSided)
	load, _ := stageMedians(st.load)
	ns := func(name string, v float64) { res.add(name, v, "ns", batches) }
	ns("consistent.owner_ns", get[spanOwner])
	ns("message.encode_req_ns", get[spanEncodeReq])
	ns("message.mailbox_write_ns", get[spanMailboxWrite])
	ns("rdma.write_indicated_ns", get[spanWriteIndicated])
	ns("message.mailbox_poll_ns", get[spanMailboxPoll])
	ns("message.decode_req_ns", get[spanDecodeReq])
	ns("hashtable.lookup_ns", get[spanTableLookup])
	ns("kv.get_ns", get[spanKVGet])
	ns("message.encode_resp_ns", get[spanEncodeResp])
	ns("message.decode_resp_ns", get[spanDecodeResp])
	ns("hashtable.insert_ns", putS[spanTableInsert])
	ns("arena.alloc_free_ns", load[spanArenaAllocFree])
	ns("kv.put_insert_ns", load[spanKVPutInsert])
	ns("kv.put_update_ns", putS[spanKVPutUpdate])
	ns("kv.reclaim_ns_per_item", st.reclaimNsPerItem)
	ns("replication.replicate_ns", putS[spanReplicate])
	ns("replication.secondary_poll_ns", putS[spanSecondaryPoll])
	ns("replication.flush_ns", putS[spanFlush])
	ns("lfmap.get_ns", one[spanLFMapGet])
	ns("rdma.read_into_ns", one[spanReadInto])
	ns("kv.decode_item_ns", one[spanDecodeItem])
	getSum, putSum, oneSum := stageSum(get, getN), stageSum(putS, putN), stageSum(one, oneN)
	ns("stage.get_msg_sum_ns", getSum)
	ns("stage.put_sum_ns", putSum)
	ns("stage.get_onesided_sum_ns", oneSum)
	// Hand-off: what the live message path takes beyond its layers' busy
	// time. Zero where the live pass saw no such op. Where plain message GETs
	// are too few for a median (a warm pointer cache leaves a dozen), the
	// GETs that fell back to a message after a stale pointer stand in; they
	// are the same round trip after a wasted one-sided attempt.
	handoff := func(live latency, sum float64) float64 {
		if live.n == 0 {
			return 0
		}
		return live.p50 - sum
	}
	msgGet := viaMsg
	if msgGet.n < minSamples {
		msgGet = stale
	}
	ns("shard.handoff_get_ns", handoff(msgGet, getSum))
	ns("shard.handoff_put_ns", handoff(put, putSum))

	if traceOut != "" {
		if err := dumpSpans(traceOut, live, st.load, st.get, st.oneSided, st.put); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// attemptedIn counts the ops of a pass, warm-up included.
func attemptedIn(runs []clientRun) int64 {
	var n int64
	for i := range runs {
		n += runs[i].attempted
	}
	return max(n, 1)
}

// calibrate measures the two host properties the latencies lean on: what a
// 10 µs sleep really costs (the shard's idle nap is built on it) and what
// one clock read costs (the harness pays two per timed op).
func calibrate() (sleep10usActualUs, nowNs float64) {
	naps := make([]float64, 31)
	for i := range naps {
		t0 := now()
		time.Sleep(10 * time.Microsecond)
		naps[i] = float64(now()-t0) / 1e3
	}
	const reads = 1 << 20
	t0 := now()
	for i := 0; i < reads; i++ {
		now()
	}
	return median(naps), float64(now()-t0) / reads
}
