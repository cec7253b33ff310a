//go:build killmatrix

package main

// The kill matrix: which detector catches which bug. Each mutant is one
// small semantic change to the data path, applied to a copy of the repo;
// every detector then runs against the mutated copy in cost order, and the
// result is written to KILLMATRIX.md at the repo root. A detector that is
// never the only one to catch a mutant adds cost without adding coverage.
//
// Run it with `make kill-matrix` (about 85 minutes on a 2-core host). Each
// mutant's old text must occur exactly once in its file, so a mutant the
// code has drifted away from fails TestKillMatrixMutantsMatch instead of
// silently testing nothing.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// mutant is one deliberate bug: replace old with new in file. aims names
// the hydralint check, the retired hydramc model ("model:<name>") or the
// chaos scenario ("chaos:<name>") the bug was written against; a deleted
// check's or model's mutants stay, to show which detector kills them now.
// pkgs are the packages whose tests, -race and hydradebug runs are aimed at
// it; empty means the file's own package. survives says why the bug causes
// no wrong result today; a survivor without it is a missing test.
type mutant struct {
	id, aims, kind, what string
	file, old, new       string
	pkgs                 []string
	survives             string
}

var mutants = []mutant{
	// Bounds: a size or offset guard loosened or dropped.
	{id: "R1", aims: "region-bounds", kind: "bounds", what: "`Mailbox.Poll` accepts a size up to `slotCap+8`",
		file: "internal/message/mailbox.go",
		old:  "if !present || size < 0 || size > m.slotCap {",
		new:  "if !present || size < 0 || size > m.slotCap+8 {"},
	{id: "R2", aims: "region-bounds", kind: "bounds", what: "`Mailbox.WriteVia` writes one byte past the slot start",
		file: "internal/message/mailbox.go",
		old:  "\toff := m.dataOff + m.wr*m.slotCap\n\tind := makeIndicator(seq, len(body))\n\tif err",
		new:  "\toff := m.dataOff + m.wr*m.slotCap + 1\n\tind := makeIndicator(seq, len(body))\n\tif err"},
	{id: "R3", aims: "region-bounds", kind: "bounds", what: "`Mailbox.Consume` wraps the read cursor one slot late",
		file: "internal/message/mailbox.go",
		old:  "if m.rd == m.depth {",
		new:  "if m.rd > m.depth {"},
	{id: "R4", aims: "region-bounds", kind: "bounds", what: "`DecodeItem` drops the header+key+value length check",
		file: "internal/kv/item.go",
		old:  "if keyLen == 0 || ItemHeaderSize+keyLen+valLen > len(buf) {",
		new:  "if keyLen == 0 {"},
	{id: "R5", aims: "region-bounds", kind: "bounds", what: "`Secondary.PollOnce` drops the ready-word size check",
		file: "internal/replication/log.go",
		old:  "if size < 0 || size > s.log.cfg.SlotSize {",
		new:  "if size < 0 {"},
	{id: "R6", aims: "region-bounds", kind: "bounds", what: "`QP.ReadInto` drops its upper bounds check",
		file: "internal/rdma/fabric.go",
		old:  "if off < 0 || off+len(dst) > len(mr.data) {",
		new:  "if off < 0 {"},
	{id: "R7", aims: "region-bounds", kind: "bounds", what: "`QP.WriteIndicated` drops its upper bounds check",
		file: "internal/rdma/fabric.go",
		old:  "if off < 0 || off+len(body) > len(mr.data) {",
		new:  "if off < 0 {"},
	{id: "R8", aims: "region-bounds", kind: "bounds", what: "`DecodeRequest` drops the key+value length check",
		file: "internal/message/codec.go",
		old:  "if reqHeader+keyLen+valLen > len(buf) || r.Op < OpGet || r.Op > OpRenewLease {",
		new:  "if r.Op < OpGet || r.Op > OpRenewLease {"},
	{id: "R9", aims: "region-bounds", kind: "bounds", what: "`Store.ReadAt` drops the word-index check",
		file: "internal/kv/store.go",
		old:  "if end > s.arena.Capacity() || int(p.MetaIdx)+leaseWord >= s.words.Len() {",
		new:  "if end > s.arena.Capacity() {"},
	{id: "R10", aims: "region-bounds", kind: "bounds", what: "`Arena.Alloc` bump-allocates one class past the end",
		file: "internal/arena/arena.go",
		old:  "if a.bump+size > len(a.data) {",
		new:  "if a.bump > len(a.data) {"},
	{id: "R11", aims: "region-bounds", kind: "bounds", what: "`Secondary.slotOf` wraps modulo `Slots-1`",
		file: "internal/replication/log.go",
		old:  "return int((seq - 1) % uint64(s.log.cfg.Slots)) }",
		new:  "return int((seq - 1) % uint64(s.log.cfg.Slots-1)) }"},

	// Locks: a release skipped on one path.
	{id: "L1", aims: "lease-discipline", kind: "lock", what: "`Cluster.Promote` keeps `cl.mu` on the \"primary is alive\" return",
		file: "internal/cluster/cluster.go",
		old:  "\t\tcl.mu.Unlock()\n\t\treturn fmt.Errorf(\"cluster: primary of group %d is alive; refusing promotion\", id)",
		new:  "\t\treturn fmt.Errorf(\"cluster: primary of group %d is alive; refusing promotion\", id)"},
	{id: "L2", aims: "lease-discipline", kind: "lock", what: "`Cluster.Promote` keeps `cl.mu` on the \"already in progress\" return",
		file: "internal/cluster/cluster.go",
		old:  "\t\tcl.mu.Unlock()\n\t\treturn fmt.Errorf(\"cluster: promotion of group %d already in progress\", id)",
		new:  "\t\treturn fmt.Errorf(\"cluster: promotion of group %d already in progress\", id)"},
	{id: "L3", aims: "lease-discipline", kind: "lock", what: "`Session.Children` defers its unlock below the session-state return",
		file: "internal/coord/coord.go",
		old:  "\tdefer s.mu.Unlock()\n\tif _, err := s.state(c.id); err != nil {\n\t\treturn nil, err\n\t}\n\tn, err := s.lookup(path)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\tout := make([]string",
		new:  "\tif _, err := s.state(c.id); err != nil {\n\t\treturn nil, err\n\t}\n\tdefer s.mu.Unlock()\n\tn, err := s.lookup(path)\n\tif err != nil {\n\t\treturn nil, err\n\t}\n\tout := make([]string"},
	{id: "L4", aims: "lease-discipline", kind: "lock", what: "`Session.Create` defers its unlock below the session-state return",
		file: "internal/coord/coord.go",
		old:  "\tdefer s.mu.Unlock()\n\tst, err := s.state(c.id)\n\tif err != nil {\n\t\treturn \"\", err\n\t}",
		new:  "\tst, err := s.state(c.id)\n\tif err != nil {\n\t\treturn \"\", err\n\t}\n\tdefer s.mu.Unlock()"},
	{id: "L5", aims: "lease-discipline", kind: "lock", what: "`Cluster.Promote` keeps `cl.mu` on the \"unknown group\" return",
		file: "internal/cluster/cluster.go",
		old:  "\t\tcl.mu.Unlock()\n\t\treturn fmt.Errorf(\"cluster: unknown group %d\", id)",
		new:  "\t\treturn fmt.Errorf(\"cluster: unknown group %d\", id)"},

	// Spins: a poll loop loses its yield or its exit.
	{id: "B1", aims: "bounded-spin", kind: "spin", what: "the engine's response poll (`pump`) no longer yields",
		file:     "internal/client/pipeline.go",
		old:      "\t\t\truntime.Gosched()\n",
		new:      "\t\t\truntime.KeepAlive(spins)\n",
		survives: "the poll still exits at its deadline; a missing yield costs CPU, not correctness"},
	{id: "B2", aims: "bounded-spin", kind: "spin", what: "the engine's response poll (`pump`) never gives up at the deadline",
		file: "internal/client/pipeline.go",
		old:  "} else if now > deadline {\n\t\t\t\t\treturn false\n",
		new:  "} else if now > deadline {\n\t\t\t\t\tdeadline = now + int64(c.opts.RequestTimeout)\n"},
	// B3 is retired: it named the synchronous path's own poll deadline. The
	// client now has one poll loop, the pump, for single ops and batches
	// alike, so B2 covers that site.
	{id: "B4", aims: "bounded-spin", kind: "spin", what: "`waitAckedUntil` ignores its flush deadline",
		file: "internal/replication/log.go",
		old:  "if deadline > 0 && timing.Wall().Now() >= deadline {",
		new:  "if deadline < 0 && timing.Wall().Now() >= deadline {"},
	{id: "B5", aims: "bounded-spin", kind: "spin", what: "the server poll loops (`Runner.poll`) busy-poll without backing off",
		file: "internal/timing/runner.go",
		old:  "\t\tif step() {\n\t\t\tback.reset()\n",
		new:  "\t\tif step() || true {\n\t\t\tback.reset()\n",
		pkgs: runnerPkgs},
	// B6 is retired: it named the shard loop's own backoff. The shard, the
	// pipelined dispatchers and the secondaries now back off in one runner
	// loop, so B5 covers them all.

	// Waits: a blocking operation under a lock, or a stop that does not join.
	{id: "W1", aims: "wait-cycle", kind: "wait", what: "`Team.run` calls the reactor (takes `Cluster.mu`) while holding `Team.mu`",
		file:     "internal/swat/swat.go",
		old:      "\t\t\tt.mu.Unlock()\n\t\t\tif !already && t.reactor != nil {\n\t\t\t\tt.reactor(name)\n",
		new:      "\t\t\tif !already && t.reactor != nil {\n\t\t\t\tt.reactor(name)\n\t\t\t}\n\t\t\tt.mu.Unlock()\n\t\t\tif !already && t.reactor != nil {\n",
		survives: "the reactor never takes `Team.mu`, so `Cluster.mu` is only ever taken under `Team.mu` and no cycle closes"},
	{id: "W2", aims: "wait-cycle", kind: "wait", what: "`Server.notify` blocks on a full watcher channel while holding `Server.mu`",
		file: "internal/coord/coord.go",
		old:  "\t\t\tcase w.ch <- ev:\n\t\t\tdefault:\n\t\t\t\t// Watcher queue overflow",
		new:  "\t\t\tcase w.ch <- ev:\n\t\t\tcase <-make(chan struct{}):\n\t\t\t\t// Watcher queue overflow"},
	{id: "W3", aims: "wait-cycle", kind: "wait", what: "`Runner.Stop` returns without joining its loops",
		file: "internal/timing/runner.go",
		old:  "\tr.wg.Wait()\n\tinvariant.AssertDrained(r.label)\n",
		new:  "\tinvariant.AssertDrained(r.label)\n",
		pkgs: runnerPkgs},
	// W4 is retired: it named `Shard.Stop`'s own join. The shard's and the
	// secondaries' Stop now join in one runner, so W3 covers both.

	// Escapes: a view of registered memory outlives the call that lent it.
	{id: "P1", aims: "published-escape", kind: "escape", what: "the shard stashes a `kv.Get` value view in a package variable",
		file:     "internal/shard/shard.go",
		old:      "func (s *Shard) apply(req message.Request, resp *message.Response) {\n\tswitch req.Op {\n\tcase message.OpGet:\n\t\tres, ok := s.store.Get(req.Key)\n",
		new:      "var lastView []byte\n\nfunc (s *Shard) apply(req message.Request, resp *message.Response) {\n\tswitch req.Op {\n\tcase message.OpGet:\n\t\tres, ok := s.store.Get(req.Key)\n\t\tlastView = res.Value\n",
		survives: "nothing reads the package variable"},
	{id: "P2", aims: "published-escape", kind: "escape", what: "`readViaPointerInto` returns the read scratch instead of appending to `dst`",
		file: "internal/client/client.go",
		old:  "\tdst = append(dst, gotVal...)\n\treturn dst, true, nil",
		new:  "\tdst = gotVal\n\treturn dst, true, nil"},
	{id: "P3", aims: "published-escape", kind: "escape", what: "the shard stashes `ArenaData()` in a package variable",
		file:     "internal/shard/shard.go",
		old:      "func (s *Shard) ID() uint32 { return s.id }",
		new:      "func (s *Shard) ID() uint32 { lastView = s.store.ArenaData(); return s.id }\n\nvar lastView []byte",
		survives: "nothing reads the package variable"},
	{id: "P4", aims: "published-escape", kind: "escape", what: "the engine keeps the mailbox slot view of a GET value instead of copying it",
		file: "internal/client/pipeline.go",
		old:  "\t\t\tp.vals = append(p.vals, resp.Val...)\n",
		new:  "\t\t\tp.vals = resp.Val\n"},

	// Order: a publication, retraction or acknowledgement moved.
	{id: "A1", aims: "spec-order", kind: "order", what: "`Store.Put` publishes the guardian before writing the payload",
		file: "internal/kv/store.go",
		old:  "\tEncodeItem(s.arena.Bytes(dataOff, size), key, val)\n\ts.words.Store(metaIdx+locWord, uint64(dataOff)<<32|uint64(size))\n\ts.words.Store(metaIdx+leaseWord, uint64(now+s.policy.Term(0)))\n\ts.words.Store(metaIdx, GuardianLive)\n",
		new:  "\ts.words.Store(metaIdx, GuardianLive)\n\tEncodeItem(s.arena.Bytes(dataOff, size), key, val)\n\ts.words.Store(metaIdx+locWord, uint64(dataOff)<<32|uint64(size))\n\ts.words.Store(metaIdx+leaseWord, uint64(now+s.policy.Term(0)))\n"},
	{id: "A2", aims: "spec-order", kind: "order", what: "`Mailbox.WriteLocal` copies the body after releasing the indicators",
		file: "internal/message/mailbox.go",
		old:  "\tcopy(m.mr.Data()[off:], body)\n\tind := makeIndicator(seq, len(body))\n\twords.Store(headIdx+1, ind)\n\twords.Store(headIdx, ind)\n",
		new:  "\tind := makeIndicator(seq, len(body))\n\twords.Store(headIdx+1, ind)\n\twords.Store(headIdx, ind)\n\tcopy(m.mr.Data()[off:], body)\n"},
	{id: "A3", aims: "spec-order", kind: "order", what: "`Store.Put`'s rollback frees the area before retracting the guardian",
		file: "internal/kv/store.go",
		old:  "\t\ts.words.Store(metaIdx, GuardianDead)\n\t\ts.arena.Free(dataOff, size)\n",
		new:  "\t\ts.arena.Free(dataOff, size)\n\t\ts.words.Store(metaIdx, GuardianDead)\n"},
	{id: "A4", aims: "spec-order", kind: "order", what: "`Secondary.PollOnce` marks a record applied before applying it",
		file: "internal/replication/log.go",
		old:  "\tif err == nil {\n\t\terr = s.applier.Apply(seq, rec)\n\t}",
		new:  "\tif err == nil {\n\t\ts.applied.Store(seq)\n\t\terr = s.applier.Apply(seq, rec)\n\t}"},
	{id: "A5", aims: "spec-order", kind: "order", what: "`Mailbox.Consume` clears the head indicator before the tail",
		file:     "internal/message/mailbox.go",
		old:      "\twords.Store(headIdx+1, 0)\n\twords.Store(headIdx, 0)\n",
		new:      "\twords.Store(headIdx, 0)\n\twords.Store(headIdx+1, 0)\n",
		survives: "the window-credit rule keeps writers out of a slot until its `Consume` returns, so no writer sees the half-cleared pair"},

	// Guards: a torn-read, lease, epoch or key check dropped.
	{id: "G1", aims: "spec-guard", kind: "guard", what: "`Store.detach` no longer kills the old guardian",
		file: "internal/kv/store.go",
		old:  "func (s *Store) detach(meta int, now int64) {\n\ts.words.Store(meta, GuardianDead)\n",
		new:  "func (s *Store) detach(meta int, now int64) {\n"},
	{id: "G2", aims: "spec-guard", kind: "guard", what: "a one-sided read accepts a dead guardian",
		file: "internal/client/client.go",
		old:  "if c.wordBuf[0] != kv.GuardianLive {",
		new:  "if c.wordBuf[0] != kv.GuardianLive && c.wordBuf[0] != kv.GuardianDead {"},
	{id: "G3", aims: "spec-guard", kind: "guard", what: "a one-sided read compares only the key's first byte",
		file: "internal/client/client.go",
		old:  "if !okDec || !bytes.Equal(gotKey, key) {",
		new:  "if !okDec || !bytes.HasPrefix(key, gotKey[:1]) {"},
	{id: "G4", aims: "spec-guard", kind: "guard", what: "`ValidForRead` adds the safety margin to the lease instead of the clock",
		file: "internal/lease/lease.go",
		old:  "return now+marginNs < exp",
		new:  "return now < exp+marginNs"},
	{id: "G5", aims: "spec-guard", kind: "guard", what: "the shard accepts requests one routing epoch stale",
		file: "internal/shard/shard.go",
		old:  "if req.Epoch != epoch {",
		new:  "if req.Epoch != epoch && req.Epoch+1 != epoch {"},
	{id: "G6", aims: "spec-guard", kind: "guard", what: "the pointer-cache lookup skips its version re-check",
		file: "internal/client/ptrcache.go",
		old:  "\t\t\tw0, w1, w2 := s.Word(0), s.Word(1), s.Word(2)\n\t\t\tif recheck := s.Version(); recheck != ver {\n\t\t\t\treturn slotRef{}, PtrEntry{}, false\n\t\t\t}\n",
		new:  "\t\t\tw0, w1, w2 := s.Word(0), s.Word(1), s.Word(2)\n"},
	{id: "G7", aims: "spec-guard", kind: "guard", what: "a new routing epoch keeps the client's cached pointers",
		file: "internal/client/client.go",
		old:  "if c.table.Epoch != old.Epoch {",
		new:  "if c.table.Epoch < old.Epoch {"},
	{id: "G8", aims: "spec-guard", kind: "guard", what: "`Shard.Kill` leaves the arena registration live",
		file: "internal/shard/shard.go",
		old:  "\ts.arenaMR.Revoke()\n",
		new:  ""},
	{id: "G9", aims: "spec-guard", kind: "guard", what: "leases may shrink on `Extend`",
		file: "internal/lease/lease.go",
		old:  "\tif exp < cur {\n\t\treturn cur\n\t}\n",
		new:  ""},
	{id: "G10", aims: "spec-guard", kind: "guard", what: "the store's key match compares only the first byte",
		file: "internal/kv/store.go",
		old:  "return ok && bytes.Equal(k, s.probeKey)",
		new:  "return ok && bytes.HasPrefix(s.probeKey, k[:1])"},
	{id: "G11", aims: "spec-guard", kind: "guard", what: "strict replication stops requesting an ack per record",
		file: "internal/replication/log.go",
		old:  "\treturn p.cfg.Strict || seq%uint64(p.cfg.AckEvery) == 0\n",
		new:  "\treturn seq%uint64(p.cfg.AckEvery) == 0\n"},

	// Clock: a stray wall-clock read on the data path.
	{id: "C1", aims: "clock-discipline", kind: "clock", what: "a one-sided read checks the lease against `time.Now`",
		file: "internal/client/client.go",
		old:  "\tnow := c.clock.Now()\n\tif !lease.ValidForRead(",
		new:  "\tnow := time.Now().UnixNano()\n\tif !lease.ValidForRead("},

	// One each for the checks the mutants above do not aim at: a goroutine
	// on the shard path, a copied atomic, an allocation on the request
	// path, a dropped error, a moved field, an undeclared store to a spec'd
	// word and a goroutine with no stop path.
	{id: "S1", aims: "shard-exclusivity", kind: "exclusive", what: "the shard runs its reclamation pass on a new goroutine",
		file: "internal/shard/shard.go",
		old:  "\tif s.sinceReclaim >= s.cfg.ReclaimEvery {\n\t\ts.store.ReclaimDue()\n",
		new:  "\tif s.sinceReclaim >= s.cfg.ReclaimEvery {\n\t\tgo s.store.ReclaimDue()\n"},
	{id: "K1", aims: "atomic-word", kind: "copy", what: "a pointer-cache hit counts on a copy of the slot's access word",
		file: "internal/client/ptrcache.go",
		old:  "if h := &r.t.side[r.i].hits; h.Load() < accessCap {",
		new:  "if h := r.t.side[r.i].hits; h.Load() < accessCap {"},
	{id: "H1", aims: "hotpath-alloc", kind: "alloc", what: "`drainConn` copies every request body to the heap",
		file: "internal/shard/shard.go",
		old:  "\t\tn := s.handle(body, s.respBuf, epoch)\n",
		new:  "\t\tn := s.handle(append([]byte(nil), body...), s.respBuf, epoch)\n"},
	{id: "E1", aims: "error-discipline", kind: "error", what: "`apply` answers a PUT OK when `Replicate` fails",
		file: "internal/shard/shard.go",
		old:  "\t\tif s.primary != nil {\n\t\t\tif err := s.primary.Replicate(replication.Record{\n\t\t\t\tOp: message.OpPut, Key: req.Key, Val: req.Val,\n\t\t\t}); err != nil {\n\t\t\t\tresp.Status = message.StatusError\n\t\t\t\treturn\n\t\t\t}\n",
		new:  "\t\tif s.primary != nil {\n\t\t\ts.primary.Replicate(replication.Record{\n\t\t\t\tOp: message.OpPut, Key: req.Key, Val: req.Val,\n\t\t\t})\n"},
	{id: "F1", aims: "layout", kind: "layout", what: "`Mailbox.wr` moves onto the read cursor's cache line",
		file: "internal/message/mailbox.go",
		old:  "\trd int\n\t_  [7]uint64 // pad: rd gets a private cache line\n\n\t// writer-side write cursor (slot index), in [0, depth)\n\twr int\n",
		new:  "\trd int\n\twr int\n\t_  [7]uint64 // pad: rd gets a private cache line\n\n\t// writer-side write cursor (slot index), in [0, depth)\n"},
	{id: "V1", aims: "spec-coverage", kind: "store", what: "a lease refresh stores the cached lease word outside the slot's seqlock",
		file: "internal/client/ptrcache.go",
		old:  "func (r slotRef) refresh(e PtrEntry) { r.t.publish(r.i, r.ver, uint32(r.ver), slotKey{}, e) }",
		new:  "func (r slotRef) refresh(e PtrEntry) { r.t.slots[r.i].w[2].Store(uint64(e.LeaseExp)) }"},
	{id: "N1", aims: "goroutine-lifecycle", kind: "lifecycle", what: "`Renewer.Stop` never closes `stopCh`",
		file: "internal/client/renewer.go",
		old:  "\tstop, done := r.stopCh, r.doneCh\n\tr.mu.Unlock()\n\tclose(stop)\n",
		new:  "\tdone := r.doneCh\n\tr.mu.Unlock()\n"},

	// Second mutants of the kept lint checks, at sites no test exercises.
	{id: "C2", aims: "clock-discipline", kind: "clock", what: "the two-sided `QP.Recv` naps with `time.Sleep` instead of waiting on its queue",
		file: "internal/rdma/fabric.go",
		old:  "\t\tselect {\n\t\tcase m := <-qp.recvCh:\n\t\t\treturn m, true\n\t\tcase <-time.After(time.Millisecond):\n\t\t}\n\t}\n}",
		new:  "\t\ttime.Sleep(time.Millisecond)\n\t}\n}"},
	{id: "S2", aims: "shard-exclusivity", kind: "exclusive", what: "`kv` declares a package-level `sync.Mutex`",
		file: "internal/kv/item.go",
		old:  "import (\n\t\"encoding/binary\"\n\t\"errors\"\n\t\"fmt\"\n)\n",
		new:  "import (\n\t\"encoding/binary\"\n\t\"errors\"\n\t\"fmt\"\n\t\"sync\"\n)\n\nvar itemMu sync.Mutex\n"},
	{id: "K2", aims: "atomic-word", kind: "copy", what: "`OpCounters.Snapshot` reads `ReplRollbacks` through a copy of the counter",
		file: "internal/stats/counters.go",
		old:  "\t\tReplRollbacks:  o.ReplRollbacks.Load(),\n",
		new:  "\t\tReplRollbacks:  (&[]Counter{o.ReplRollbacks}[0]).Load(),\n"},
	{id: "E2", aims: "error-discipline", kind: "error", what: "`Promote` drops the error of the new primary's liveness registration",
		file: "internal/cluster/cluster.go",
		old:  "\tif _, err := newGroup.session.Create(fmt.Sprintf(\"%s/shard-%d\", livePath, id), nil, coord.FlagEphemeral); err != nil {\n\t\treturn err\n\t}\n",
		new:  "\tnewGroup.session.Create(fmt.Sprintf(\"%s/shard-%d\", livePath, id), nil, coord.FlagEphemeral)\n"},

	// The live form of each hydramc model's seeded bug, and the bugs only an
	// interleaving exposes (the ptrcache model's seeded bug is G6). aims
	// names the model.
	{id: "G12", aims: "model:lease", kind: "guard", what: "`Store.detach` schedules the reclaim at now+grace, ignoring the item's lease",
		file: "internal/kv/store.go",
		old:  "\texp := int64(s.words.Load(meta + leaseWord))\n\ts.reclaim.push(reclaimEntry{due: s.policy.ReclaimAt(exp, now), meta: meta})\n",
		new:  "\ts.reclaim.push(reclaimEntry{due: s.policy.ReclaimAt(now, now), meta: meta})\n"},
	{id: "G13", aims: "model:guardian", kind: "guard", what: "`ReclaimAt` reclaims at lease expiry with zero margin (no grace)",
		file: "internal/lease/lease.go",
		old:  "\tat := exp + p.GraceNs\n",
		new:  "\tat := exp\n",
		pkgs: []string{"./internal/lease", "./internal/kv"}},
	{id: "M1", aims: "model:mailbox", kind: "window", what: "the engine (`pump`) keeps `Depth()+1` requests in flight",
		file: "internal/client/pipeline.go",
		old:  "pc.next-pc.head < pc.ep.Depth() {",
		new:  "pc.next-pc.head <= pc.ep.Depth() {"},
	{id: "M2", aims: "model:mailbox", kind: "order", what: "`drainConn` returns the credit (replies) before `Consume` clears the request slot",
		file: "internal/shard/shard.go",
		old:  "\t\tc.release()\n\t\t//hydralint:ignore error-discipline response to a vanished client; nothing to do but serve the next mailbox\n\t\t_ = c.reply(s.respBuf[:n], seq)\n",
		new:  "\t\t//hydralint:ignore error-discipline response to a vanished client; nothing to do but serve the next mailbox\n\t\t_ = c.reply(s.respBuf[:n], seq)\n\t\tc.release()\n"},
	{id: "A6", aims: "model:replication", kind: "ack", what: "`pollAcks` counts a nacked range as acknowledged instead of re-sending it",
		file: "internal/replication/log.go",
		old:  "\t\t\tp.Rollbacks.Inc()\n\t\t\tp.resendRange(s, seq, count)\n",
		new:  "\t\t\tp.Rollbacks.Inc()\n\t\t\tif end := seq + count - 1; end > s.lastAcked {\n\t\t\t\ts.lastAcked = end\n\t\t\t}\n"},

	// One per chaos scenario: a bug on the path the scenario's faults drive.
	{id: "X1", aims: "chaos:crash-primary", kind: "fault", what: "`stopSecondaries` skips the final drain, so a promotion drops records still in the ring",
		file: "internal/cluster/cluster.go",
		old:  "\t\tsec.sec.Stop()\n\t\tfor sec.sec.PollOnce() {\n\t\t}\n",
		new:  "\t\tsec.sec.Stop()\n"},
	{id: "X2", aims: "chaos:partition-secondary", kind: "fault", what: "`catchUp` leaves the newest record unwritten after a healed partition",
		file: "internal/replication/log.go",
		old:  "\t\tif s.written < p.seq {\n\t\t\t//hydralint:ignore error-discipline recovery catch-up",
		new:  "\t\tif s.written+1 < p.seq {\n\t\t\t//hydralint:ignore error-discipline recovery catch-up"},
	{id: "X3", aims: "chaos:leader-kill", kind: "fault", what: "only the founding SWAT leader reacts; a re-elected leader ignores failures",
		file: "internal/swat/swat.go",
		old:  "\t\t\tif err != nil || !isLeader {\n",
		new:  "\t\t\tif err != nil || !isLeader || m.name != \"swat-0\" {\n"},
	{id: "X4", aims: "chaos:stop-drain", kind: "fault", what: "`MoveShard` re-wires the secondaries without stopping their drain loops",
		file: "internal/cluster/cluster.go",
		old:  "\tg.shard.Stop()\n\tstopSecondaries(g)\n\n\t// Restart on the target machine",
		new:  "\tg.shard.Stop()\n\n\t// Restart on the target machine"},
}

// metaChecks judge the lint and the specs themselves, not the data path, so
// no mutant of the data path can aim at them.
var metaChecks = map[string]bool{"stale-suppression": true, "spec-drift": true}

// detectors in cost order. Lint findings are split by check, so each
// check is its own detector in the table ("lint:<check>"); the chaos cell
// names the scenarios that failed.
var detectorOrder = []string{"build", "vet", "lint", "tests", "tier-1", "race", "hydradebug", "chaos"}

// runnerPkgs are the packages whose loops run on timing.Runner; the shard
// first, so the runner's mutants also run the chaos smoke.
var runnerPkgs = []string{"./internal/shard", "./internal/replication", "./internal/cluster", "./internal/timing"}

// chaosPkgs are the packages whose mutants also run the chaos smoke.
var chaosPkgs = map[string]bool{
	"./internal/cluster": true, "./internal/replication": true, "./internal/swat": true,
	"./internal/coord": true, "./internal/shard": true,
}

func (m mutant) packages() []string {
	if len(m.pkgs) > 0 {
		return m.pkgs
	}
	return []string{"./" + filepath.ToSlash(filepath.Dir(m.file))}
}

// baselinePackages is every package some mutant aims at: the unmutated
// run covers them all, which also warms the build cache for the rows.
func baselinePackages() []string {
	seen := map[string]bool{}
	var pkgs []string
	for _, m := range mutants {
		for _, p := range m.packages() {
			if !seen[p] {
				seen[p] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return pkgs
}

// TestKillMatrixMutantsMatch checks every mutant still applies: its old
// text occurs exactly once in its file, and ids are unique.
func TestKillMatrixMutantsMatch(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range mutants {
		if seen[m.id] {
			t.Errorf("duplicate mutant id %s", m.id)
		}
		seen[m.id] = true
		src, err := os.ReadFile(filepath.Join("..", "..", m.file))
		if err != nil {
			t.Errorf("%s: %v", m.id, err)
			continue
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Errorf("%s: old text occurs %d times in %s, want 1", m.id, n, m.file)
		}
	}
}

// TestKillMatrixMutantsAimEveryCheck fails when a check of the registry is
// aimed at by no mutant: a check the matrix never tests cannot show that it
// earns its keep.
func TestKillMatrixMutantsAimEveryCheck(t *testing.T) {
	aimed := map[string]bool{}
	for _, m := range mutants {
		aimed[m.aims] = true
	}
	for _, c := range allChecks {
		if !aimed[c.Name] && !metaChecks[c.Name] {
			t.Errorf("no mutant aims at check %s; add one to the kill matrix", c.Name)
		}
	}
}

// matrixRow is one mutant's outcome: per detector, killed or survived;
// absent means the detector did not run.
type matrixRow struct {
	m         mutant
	killed    map[string]bool
	checks    []string // lint checks with findings, in registry order
	scenarios []string // chaos scenarios that failed, in run order
	note      string   // first lines of the first killer's output
}

// killers lists the row's killing detectors in cost order, with lint
// expanded to one entry per check.
func (r matrixRow) killers() []string {
	var out []string
	for _, d := range detectorOrder {
		if d == "lint" {
			for _, c := range r.checks {
				out = append(out, "lint:"+c)
			}
			continue
		}
		if r.killed[d] {
			out = append(out, d)
		}
	}
	return out
}

func TestKillMatrix(t *testing.T) {
	TestKillMatrixMutantsMatch(t)
	if t.Failed() {
		t.FailNow()
	}
	root := copyRepoGoTree(t)
	// readme_test.go, part of tier-1, reads README.md.
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "README.md"), readme, 0o644); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()

	// The unmutated tree must pass every detector, or a kill means nothing.
	base := runDetectors(t, root, bin, mutant{id: "baseline"})
	if k := base.killers(); len(k) > 0 {
		t.Fatalf("the unmutated tree fails %v:\n%s", k, base.note)
	}

	var rows []matrixRow
	for _, m := range mutants {
		t.Run(m.id, func(t *testing.T) {
			path := filepath.Join(root, filepath.FromSlash(m.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated := strings.Replace(string(orig), m.old, m.new, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			start := time.Now()
			row := runDetectors(t, root, bin, m)
			rows = append(rows, row)
			t.Logf("%s killed by %v (%.0fs)", m.id, row.killers(), time.Since(start).Seconds())
		})
	}
	if len(rows) != len(mutants) {
		return // a -run filter selected a subset: report, but keep the checked-in table
	}
	out := filepath.Join("..", "..", "KILLMATRIX.md")
	if err := os.WriteFile(out, []byte(renderMatrix(rows)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runDetectors runs every detector against the tree at root in cost order.
// A build failure stops the row: nothing else can run.
func runDetectors(t *testing.T, root, bin string, m mutant) matrixRow {
	t.Helper()
	row := matrixRow{m: m, killed: map[string]bool{}}
	record := func(d string, ok bool, out string) {
		row.killed[d] = !ok
		if !ok && row.note == "" {
			row.note = d + ": " + firstLines(out, 12)
		}
	}
	pkgs := m.packages()
	if m.id == "baseline" {
		pkgs = baselinePackages()
	}

	ok, out := goCmd(root, 5*time.Minute, "build", "./...")
	record("build", ok, out)
	if !ok {
		return row
	}
	ok, out = goCmd(root, 5*time.Minute, append([]string{"vet"}, pkgs...)...)
	record("vet", ok, out)

	res, err := RunLint(root, []string{"./..."}, nil, true)
	if err != nil {
		t.Fatalf("%s: RunLint: %v", m.id, err)
	}
	fired := map[string]bool{}
	var lintOut strings.Builder
	for _, d := range res.Diags {
		fired[d.Check] = true
		fmt.Fprintf(&lintOut, "%s:%d: %s (%s)\n", d.File, d.Line, d.Msg, d.Check)
	}
	for _, c := range allChecks {
		if fired[c.Name] {
			row.checks = append(row.checks, c.Name)
		}
	}
	record("lint", len(res.Diags) == 0, lintOut.String())

	ok, out = goCmd(root, 3*time.Minute, append([]string{"test", "-count=1", "-timeout", "60s"}, pkgs...)...)
	record("tests", ok, out)
	if ok {
		// The rest of tier-1. cmd/hydralint's own tests re-run the lint,
		// which already has its columns, so they are left out here.
		all, err := listPackages(root)
		if err != nil {
			t.Fatal(err)
		}
		ok, out = goCmd(root, 5*time.Minute, append([]string{"test", "-timeout", "120s"}, all...)...)
		record("tier-1", ok, out)
	}
	ok, out = goCmd(root, 5*time.Minute, append([]string{"test", "-race", "-count=1", "-timeout", "120s"}, pkgs...)...)
	record("race", ok, out)
	ok, out = goCmd(root, 3*time.Minute, append([]string{"test", "-tags", "hydradebug", "-count=1", "-timeout", "60s"}, pkgs...)...)
	record("hydradebug", ok, out)

	if m.id == "baseline" || chaosPkgs[pkgs[0]] {
		chaos := filepath.Join(bin, "hydrachaos")
		if ok, out = goCmd(root, 5*time.Minute, "build", "-o", chaos, "./cmd/hydrachaos"); ok {
			ok, out = runCmd(root, 3*time.Minute, chaos, "-seed", "1", "-seeds", "3", "-clients", "3", "-ops", "100", "-keys", "16")
			row.scenarios = failedScenarios(out)
		}
		if ok {
			// The armed seeded bug must still be caught, or the oracle went blind.
			var caught bool
			caught, out = runCmd(root, 3*time.Minute, chaos, "-scenario", "crash-primary", "-bug", "-clients", "2", "-ops", "60", "-keys", "8")
			ok = !caught
			if !ok {
				out = "seeded bug no longer caught\n" + out
			}
		}
		record("chaos", ok, out)
	}
	return row
}

// failedScenarios lists, once each, the scenarios whose hydrachaos verdict
// line reads FAILED.
func failedScenarios(out string) []string {
	var names []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[len(f)-1] == "FAILED" && !slices.Contains(names, f[0]) {
			names = append(names, f[0])
		}
	}
	return names
}

// listPackages lists the module's packages other than cmd/hydralint.
func listPackages(root string) ([]string, error) {
	ok, out := goCmd(root, time.Minute, "list", "./...")
	if !ok {
		return nil, errors.New(out)
	}
	var pkgs []string
	for _, p := range strings.Fields(out) {
		if p != "hydradb/cmd/hydralint" {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

func goCmd(dir string, limit time.Duration, args ...string) (bool, string) {
	return runCmd(dir, limit, "go", args...)
}

// runCmd runs a command with a wall-clock limit; ok is a zero exit status.
func runCmd(dir string, limit time.Duration, name string, args ...string) (bool, string) {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		return false, fmt.Sprintf("timed out after %v\n%s", limit, out)
	}
	return err == nil, string(out)
}

func firstLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// renderMatrix writes KILLMATRIX.md: one row per mutant, then per-detector
// totals of kills, first kills and sole kills.
func renderMatrix(rows []matrixRow) string {
	var b strings.Builder
	b.WriteString("# Kill matrix\n\n")
	b.WriteString("Generated by `make kill-matrix` (`cmd/hydralint/killmatrix_test.go`); do not edit by hand.\n")
	fmt.Fprintf(&b, "Host: %d CPUs, %s.\n\n", runtime.NumCPU(), runtime.Version())
	b.WriteString("Each mutant is one small semantic bug applied to a copy of the repo. The detectors run in cost order:\n")
	b.WriteString("`build` (`go build ./...`), `vet` (the package), `lint` (one full hydralint run, split by check),\n")
	b.WriteString("`tests` (the package, `-timeout 60s`), `tier-1` (`go test` of every other package except cmd/hydralint, whose\n")
	b.WriteString("dogfood test is the lint column; run only when `tests` passes), `race` and `hydradebug` (the package)\n")
	b.WriteString("and `chaos` (the `make chaos-smoke` runs, with the failing scenarios named; only for mutants in cluster,\n")
	b.WriteString("replication, swat, coord and shard). ✗ = killed, · = survived, – = not run.\n")
	b.WriteString("The first killer is the cheapest detector that failed; a sole killer is the only one.\n")
	b.WriteString("`aims` is the hydralint check or hydramc model (`model:`) or chaos scenario (`chaos:`) the mutant was written\n")
	b.WriteString("against; a check no longer in `-list` was deleted, as was hydramc, and its row shows what kills the bug without it.\n\n")

	b.WriteString("| id | aims | kind | mutation | build | vet | lint | tests | tier-1 | race | hydradebug | chaos | first killer | sole killer |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	cell := func(r matrixRow, d string) string {
		k, ran := r.killed[d]
		switch {
		case !ran:
			return "–"
		case d == "lint" && k:
			return "✗ " + strings.Join(r.checks, ", ")
		case d == "chaos" && k && len(r.scenarios) > 0:
			return "✗ " + strings.Join(r.scenarios, ", ")
		case k:
			return "✗"
		}
		return "·"
	}
	type tally struct{ kills, first, sole int }
	tallies := map[string]*tally{}
	get := func(d string) *tally {
		if tallies[d] == nil {
			tallies[d] = &tally{}
		}
		return tallies[d]
	}
	var survivors []matrixRow
	for _, r := range rows {
		ks := r.killers()
		first, sole := "**none**", ""
		if len(ks) > 0 {
			first = ks[0]
			get(ks[0]).first++
		} else {
			survivors = append(survivors, r)
		}
		if len(ks) == 1 {
			sole = "**" + ks[0] + "**"
			get(ks[0]).sole++
		}
		for _, k := range ks {
			get(k).kills++
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s (`%s`) |", r.m.id, r.m.aims, r.m.kind, r.m.what, r.m.file)
		for _, d := range detectorOrder {
			fmt.Fprintf(&b, " %s |", cell(r, d))
		}
		fmt.Fprintf(&b, " %s | %s |\n", first, sole)
	}

	b.WriteString("\n## Totals per detector\n\n")
	b.WriteString("Lint checks are listed one by one; a check with no row here fired on no mutant.\n\n")
	b.WriteString("| detector | kills | first kills | sole kills |\n|---|---|---|---|\n")
	var names []string
	for _, d := range detectorOrder {
		if d == "lint" {
			var checks []string
			for name := range tallies {
				if strings.HasPrefix(name, "lint:") {
					checks = append(checks, name)
				}
			}
			sort.Strings(checks)
			names = append(names, checks...)
			continue
		}
		names = append(names, d)
	}
	for _, d := range names {
		tl := get(d)
		fmt.Fprintf(&b, "| %s | %d | %d | %d |\n", d, tl.kills, tl.first, tl.sole)
	}
	fmt.Fprintf(&b, "\nMutants: %d. Survivors (killed by nothing): %d.\n", len(rows), len(survivors))
	if len(survivors) > 0 {
		b.WriteString("\n## Survivors\n\n")
		for _, r := range survivors {
			why := r.m.survives
			if why == "" {
				why = "**no reason recorded: a missing test**"
			}
			fmt.Fprintf(&b, "- %s (%s): %s\n", r.m.id, r.m.what, why)
		}
	}
	return b.String()
}
