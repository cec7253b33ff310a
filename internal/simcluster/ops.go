package simcluster

import (
	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/ycsb"
)

// The one client operation path. Figure clients and fleet tracers alike
// draw a request from the run's source, try the one-sided read through
// their pointer cache, and fall back to the message path through the
// shard's execution model, against the real kv.Store.

// nextRequest hands out the shared Workload stream in order.
func (s *FleetSim) nextRequest(cl *client) (string, bool, bool) {
	w := s.cfg.Workload
	if s.nextOp >= len(w.Requests) {
		return "", false, false
	}
	req := w.Requests[s.nextOp]
	s.nextOp++
	// update & insert are both server-handled writes
	return string(w.KeyInto(cl.keyBuf[:], req.KeyIdx)), req.Op == ycsb.OpRead, true
}

// hotSetDraw is the 80/20 working set of a run without a Workload: most
// ops hit the client's 64 hot keys so the pointer cache sees realistic
// reuse (the cohort's hit/stale mix is calibrated from these clients).
func (s *FleetSim) hotSetDraw(cl *client) (string, bool, bool) {
	rng := cl.m.rng
	var ki int64
	if rng.Float64() < 0.8 {
		ki = (int64(cl.id)*97 + int64(rng.Intn(64))) % int64(len(s.keys))
	} else {
		ki = rng.Int63n(int64(len(s.keys)))
	}
	return s.keys[ki], rng.Intn(100) < s.cfg.ReadPct, true
}

// step issues the client's next operation.
func (s *FleetSim) step(cl *client) {
	if cl.m.down {
		return // the machine died; its clients die with it
	}
	key, isGet, ok := s.next(cl)
	if !ok {
		return
	}
	start := s.eng.Now()
	if isGet {
		s.doGet(cl, key, start)
	} else {
		s.msgOp(cl, key, false, idxMessage, start)
	}
}

// complete records a finished operation in its latency class (class < 0:
// failed, no latency) and schedules the client's next one.
func (s *FleetSim) complete(cl *client, isGet bool, class int, start int64) {
	if lat := s.eng.Now() - start; class >= 0 {
		s.hists[class].Record(lat)
		if isGet {
			s.getHist.Record(lat)
		} else {
			s.updHist.Record(lat)
		}
	}
	s.ops++
	s.endNs = s.eng.Now()
	s.eng.After(s.thinkNs, func() { s.step(cl) })
}

const (
	reqHeaderBytes  = 16
	respHeaderBytes = 38
)

// doGet first tries the one-sided path through the pointer cache (§4.2.2),
// falling back to messaging. Only ModeWriteRead ever fills the cache.
func (s *FleetSim) doGet(cl *client, key string, start int64) {
	e, ok := cl.cache[key]
	switch {
	case !ok:
		s.misses++
		s.msgOp(cl, key, true, idxMessage, start)
	case !lease.ValidForRead(e.leaseExp, s.eng.Now(), 1e6):
		s.stale++
		delete(cl.cache, key)
		s.msgOp(cl, key, true, idxStale, start)
	default:
		s.rdmaRead(cl, key, e, start)
	}
}

// rdmaRead is the one-sided GET: one round trip, zero shard CPU, validated
// against the real store state at fetch time.
func (s *FleetSim) rdmaRead(cl *client, key string, e *ptrEntry, start int64) {
	sh := s.shards[e.ptr.ShardID-1]
	home := sh.m
	bytes := int(e.ptr.DataLen) + 16
	s.hop(cl.m, home, bytes, func() {
		s.hop(home, cl.m, bytes, func() {
			buf := make([]byte, e.ptr.DataLen)
			_, guardian, leaseExp, err := sh.store.ReadAt(e.ptr, buf)
			// A killed shard's memory region is revoked with it, so the read
			// fails like an outdated item and falls back to the message path.
			valid := sh.alive && err == nil && guardian == kv.GuardianLive
			if valid {
				k, _, okDec := kv.DecodeItem(buf)
				valid = okDec && string(k) == key
			}
			if !valid {
				// Invalid hit: outdated item observed; re-fetch through the
				// server (§4.2.3). The extra round trip stays in this op's
				// latency, as in the paper.
				s.stale++
				delete(cl.cache, key)
				s.msgOp(cl, key, true, idxStale, start)
				return
			}
			s.hits++
			if leaseExp > e.leaseExp {
				e.leaseExp = leaseExp
			}
			s.complete(cl, true, idxHit, start)
		})
	})
}

// msgOp routes a message-path operation through cl's ring view: a
// WrongShard answer from a stale view bounces, refreshes the view, and
// retries — the real reroute mechanics behind the cohort's bounce class.
func (s *FleetSim) msgOp(cl *client, key string, isGet bool, class int, start int64) {
	owner := s.ring.OwnerOfKey([]byte(key))
	viewOwner := owner
	if cl.view != s.ring {
		viewOwner = cl.view.OwnerOfKey([]byte(key))
	}
	if viewOwner == owner {
		s.send(cl, key, isGet, owner, class, start)
		return
	}
	s.bounces++
	old := s.shards[viewOwner-1]
	om := old.m
	refresh := func() {
		s.eng.After(s.cfg.Cost.TableRefreshNs, func() {
			cl.view = s.ring
			s.send(cl, key, isGet, owner, idxBounce, start)
		})
	}
	if om.down {
		// Black-holed request: client times out, then refreshes.
		s.eng.After(1_000_000, refresh)
		return
	}
	s.hop(cl.m, om, reqHeaderBytes+len(key), func() {
		old.cpu.Acquire(s.cfg.Cost.ShardFixedNs, func() {
			s.hop(om, cl.m, respHeaderBytes, refresh)
		})
	})
}

// send performs a message-path operation on shard sid (RDMA Write, or
// Send/Recv): request hop, the shard's execution model, the real store
// operation, response hop.
func (s *FleetSim) send(cl *client, key string, isGet bool, sid uint32, class int, start int64) {
	sh := s.shards[sid-1]
	if !sh.alive {
		s.errors++
		s.complete(cl, isGet, -1, start)
		return
	}
	home := sh.m
	reqBytes := reqHeaderBytes + len(key)
	if !isGet {
		reqBytes += len(s.val)
	}
	s.hop(cl.m, home, reqBytes, func() {
		s.serve(sh, isGet, func() {
			respVal, res, ok := s.applyOp(sh, key, isGet)
			s.hop(home, cl.m, respHeaderBytes+respVal, func() {
				if ok && s.cfg.Mode == ModeWriteRead {
					// Cache the remote pointer returned with the response.
					ptr := res.Ptr
					ptr.ShardID = sh.id
					cl.cache[key] = &ptrEntry{ptr: ptr, leaseExp: res.LeaseExp}
				}
				if s.cfg.Mode == ModeSendRecv {
					s.eng.After(s.cfg.Cost.SendRecvClientNs, func() { s.complete(cl, isGet, class, start) })
					return
				}
				s.complete(cl, isGet, class, start)
			})
		})
	})
}

// serve routes a request through the shard's execution model, then runs
// work when the shard thread picks it up.
func (s *FleetSim) serve(sh *shard, isGet bool, work func()) {
	c := &s.cfg.Cost
	proc := c.ShardFixedNs
	if s.cfg.NUMAInterleaved {
		// Memory not confined to the shard thread's NUMA domain: every
		// request pays remote-node access latency (§4.1.2).
		proc += c.NUMAPenaltyNs
	}
	if isGet {
		proc += c.ShardGetNs
	} else {
		proc += c.ShardPutNs + int64(len(sh.secMachines))*c.ReplPostNs
		if s.cfg.Strict && len(sh.secMachines) > 0 {
			// Strict request/ack occupies the single shard thread for the
			// whole ack round trip — the serialization that makes it
			// "consistently double the average latency" (Fig. 13). The
			// secondaries are contacted in parallel, so one round trip's
			// worth of hold time is charged.
			proc += 2*c.WireNs + 2*c.NICOpNs + c.SecApplyNs
		}
	}
	switch {
	case s.cfg.Mode == ModeSendRecv:
		sh.cpu.Acquire(proc+c.SendRecvServerNs, work)
	case s.cfg.Mode == ModePipelineWrite:
		// Fig. 5(a): I/O threads detect + enqueue, workers process under a
		// shared-store mutex, then hand the response back.
		sh.dispatch.Acquire(c.PipeDispatchNs, func() {
			s.eng.After(c.PipeHandoffNs, func() {
				sh.workers.Acquire(c.PipeWorkerNs, func() {
					sh.lock.Acquire(proc+c.PipeLockNs, work)
				})
			})
		})
	case sh.inst != nil:
		// Sub-sharding: the instance's connection thread detects the
		// request and hands it to the owning sub-shard core (§6.3).
		sh.inst.Acquire(c.SubShardDemuxNs, func() {
			sh.cpu.Acquire(proc, work)
		})
	default:
		sh.cpu.Acquire(proc, work)
	}
}

// applyOp executes the real store operation and its replication side
// effects. It returns the response payload size and the remote pointer to
// hand back (ok false: none).
func (s *FleetSim) applyOp(sh *shard, key string, isGet bool) (int, kv.GetResult, bool) {
	if isGet {
		res, ok := sh.store.Get([]byte(key))
		return len(res.Value), res, ok
	}
	res, _, err := sh.store.Put([]byte(key), s.val)
	if err != nil {
		s.putErrors++
		return 0, res, false
	}
	if p := sh.store.PendingReclaims(); p > s.maxPending {
		s.maxPending = p
	}
	// Both replication modes post the records here; in strict mode the ack
	// round trip is charged as shard hold time inside serve() — the single
	// shard thread blocks on every acknowledgement (§5.2), which is exactly
	// what Fig. 13's doubling comes from.
	s.replicate(sh, len(key))
	return 0, res, true
}

// replicate posts one log record to each secondary: fire-and-forget
// one-sided writes that merely queue ahead of the response on the primary
// NIC (§5.2).
func (s *FleetSim) replicate(sh *shard, keyLen int) {
	recBytes := 8 + keyLen + len(s.val)
	s.replicated += int64(len(sh.secMachines))
	for i, sm := range sh.secMachines {
		apply := sh.secApply[i]
		s.hop(sh.m, sm, recBytes, func() {
			apply.Acquire(s.cfg.Cost.SecApplyNs, func() {})
		})
	}
}
