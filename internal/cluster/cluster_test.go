package cluster

import (
	"fmt"
	"strings"
	"testing"

	"hydradb/internal/testutil"
	"time"

	"hydradb/internal/client"
	"hydradb/internal/kv"
	"hydradb/internal/timing"
)

func testConfig(clk timing.Clock) Config {
	return Config{
		ServerMachines:   2,
		ClientMachines:   2,
		ShardsPerMachine: 2,
		Store: kv.Config{
			ArenaBytes: 2 << 20,
			MaxItems:   8192,
			Clock:      clk,
		},
	}
}

func TestClusterBasicOps(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cl, err := New(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	if len(cl.ShardIDs()) != 4 {
		t.Fatalf("shards = %d", len(cl.ShardIDs()))
	}
	c := cl.NewClient(0, client.Options{UseRDMARead: true})
	const n = 200
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		if err := c.Put(k, []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		v, err := c.Get(k)
		if err != nil || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("get %s: %q %v", k, v, err)
		}
	}
	// Keys must actually spread across shards.
	populated := 0
	for _, id := range cl.ShardIDs() {
		if cl.Shard(id).Store().Len() > 0 {
			populated++
		}
	}
	if populated < 3 {
		t.Fatalf("only %d shards populated", populated)
	}
}

func TestReplicationToSecondaries(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.Replicas = 1
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	c := cl.NewClient(0, client.Options{})
	const n = 100
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("user%016d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the drain loops via the atomic applied counters, then stop
	// the cluster and inspect the (now quiescent) replica stores.
	testutil.WaitUntil(t, 5*time.Second, func() bool {
		return cl.SecondaryAppliedTotal() == int64(n)
	}, "replicas never converged")
	ids := cl.ShardIDs()
	cl.Stop()
	total := 0
	for _, id := range ids {
		for _, st := range cl.SecondaryStores(id) {
			total += st.Len()
		}
	}
	if total != n {
		t.Fatalf("replica stores hold %d items, want %d", total, n)
	}
}

func TestFailoverPreservesAckedWrites(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.Replicas = 1
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	c := cl.NewClient(0, client.Options{UseRDMARead: true})
	const n = 300
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		if err := c.Put(k, []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the primary holding the most keys.
	var victim uint32
	maxLen := -1
	for _, id := range cl.ShardIDs() {
		if l := cl.Shard(id).Store().Len(); l > maxLen {
			maxLen, victim = l, id
		}
	}
	epochBefore := cl.Epoch()
	if err := cl.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	// SWAT must notice and promote.
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return cl.Promotions.Load() >= 1 && cl.Epoch() > epochBefore
	}, "promotion never happened")

	// Every acknowledged write must still be readable. The client's stale
	// epoch and cached pointers into the dead shard's arena must recover
	// transparently (WrongShard -> refresh; stale pointer -> fallback).
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		v, err := c.Get(k)
		if err != nil || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("after failover, get %s: %q %v", k, v, err)
		}
	}
	// Writes keep working after failover.
	if err := c.Put([]byte("post-failover"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if v := testutil.Must1(c.Get([]byte("post-failover"))); string(v) != "yes" {
		t.Fatal("post-failover write lost")
	}
}

func TestFailoverWithTwoReplicasPicksMostCaughtUp(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.ServerMachines = 3
	cfg.ShardsPerMachine = 1
	cfg.Replicas = 2
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	c := cl.NewClient(0, client.Options{})
	const n = 120
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("user%016d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	victim := cl.ShardIDs()[0]
	if err := cl.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool { return cl.Promotions.Load() >= 1 }, "no promotion")

	// The promoted shard must hold every key the dead one owned.
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		if v, err := c.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("get %s after failover: %q %v", k, v, err)
		}
	}
	// And the surviving secondary must be re-attached and re-synced.
	if got := len(cl.SecondaryStores(victim)); got != 1 {
		t.Fatalf("re-attached secondaries = %d, want 1", got)
	}
}

func TestKillUnknownShard(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cl, err := New(testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if err := cl.KillShard(999); err == nil {
		t.Fatal("killing unknown shard succeeded")
	}
	if err := cl.Promote(999); err == nil {
		t.Fatal("promoting unknown group succeeded")
	}
}

func TestPromoteWithoutReplicasFails(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cl, err := New(testConfig(clk)) // Replicas: 0
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	if err := cl.Promote(cl.ShardIDs()[0]); err == nil {
		t.Fatal("promotion without secondaries succeeded")
	}
}

func TestSendRecvCluster(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.SendRecv = true
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := cl.NewClient(0, client.Options{})
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("get: %q %v", v, err)
		}
	}
}

func TestPipelinedCluster(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.Pipelined = true
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	c := cl.NewClient(0, client.Options{})
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("k%03d", i))
		if err := c.Put(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("get: %q %v", v, err)
		}
	}
}

// TestPipelinedSurvivesMoveAndPromotion: a partition rebuilt by MoveShard or
// by SWAT promotion must come back under the execution model the cluster
// was configured with, not the single-threaded loop, and keep every key.
func TestPipelinedSurvivesMoveAndPromotion(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.ServerMachines = 3
	cfg.ShardsPerMachine = 1
	cfg.Replicas = 1
	cfg.Pipelined = true
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	c := cl.NewClient(0, client.Options{})
	const n = 60
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("pl%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	victim := cl.ShardIDs()[0]
	check := func(step string) {
		t.Helper()
		cl.mu.Lock()
		pipelined := cl.groups[victim].shard.Pipelined()
		cl.mu.Unlock()
		if !pipelined {
			t.Fatalf("after %s: group %d runs the single-threaded loop", step, victim)
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("pl%04d", i))
			if v, err := c.Get(k); err != nil || string(v) != "v" {
				t.Fatalf("after %s: get %s: %q %v", step, k, v, err)
			}
		}
	}

	if err := cl.MoveShard(victim, 2); err != nil {
		t.Fatal(err)
	}
	check("move")
	if err := cl.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool { return cl.Promotions.Load() >= 1 }, "no promotion")
	check("promotion")
}

// TestDoublePromotionRace fires two Promote calls for the same group
// concurrently — the SWAT reactor and a chaos controller can both observe
// one failure. Exactly the guarded outcomes are allowed: a success, and
// either a clean "already in progress" error or a second full promotion
// (when the calls did not overlap). Never a panic, and the data stays
// reachable afterwards.
func TestDoublePromotionRace(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.ServerMachines = 3
	cfg.ShardsPerMachine = 1
	cfg.Replicas = 2
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	c := cl.NewClient(0, client.Options{})
	for i := 0; i < 50; i++ {
		if err := c.Put([]byte(fmt.Sprintf("dp%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	victim := cl.ShardIDs()[0]
	if err := cl.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool { return cl.Promotions.Load() >= 1 }, "SWAT promotion")

	// Race two explicit promotions of the already-promoted group.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- cl.Promote(victim) }()
	}
	var failures []error
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			failures = append(failures, err)
		}
	}
	for _, err := range failures {
		if !strings.Contains(err.Error(), "already in progress") &&
			!strings.Contains(err.Error(), "refusing promotion") {
			t.Fatalf("unexpected promotion error: %v", err)
		}
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		v, err := c.Get([]byte("dp0000"))
		return err == nil && string(v) == "v"
	}, "data unreachable after racing promotions")
}

// TestPromoteRefusedWhilePromotingReleasesLock holds one promotion of a dead
// primary's group in progress and makes a second Promote of it: that one is
// refused, and the refusal must leave cl.mu free, or every later Promote,
// KillShard and Stop blocks on it.
func TestPromoteRefusedWhilePromotingReleasesLock(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.Replicas = 1
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := cl.ShardIDs()[0]
	// The primary dies without closing its session, so the SWAT stays out of
	// it, and the promotion is marked as running.
	cl.mu.Lock()
	cl.groups[victim].shard.Kill()
	cl.promoting[victim] = true
	cl.mu.Unlock()

	refused := make(chan error, 1)
	go func() {
		err := cl.Promote(victim)
		cl.mu.Lock()
		delete(cl.promoting, victim)
		cl.mu.Unlock()
		refused <- err
	}()
	select {
	case err := <-refused:
		if err == nil || !strings.Contains(err.Error(), "already in progress") {
			t.Fatalf("second promotion: %v, want it refused as already in progress", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cl.mu still held 10 s after a refused promotion") // cl.Stop would block too
	}
	cl.Stop()
}

// TestStopThenPromotePreservesAckedWrites is the graceful-shutdown cousin of
// TestFailoverPreservesAckedWrites: a primary serving traffic is Stopped,
// then declared dead, then its secondary is promoted explicitly. Every
// acknowledged write must be readable from the promoted store — a
// replication record dropped during the graceful shutdown would surface
// here as a lost write.
func TestStopThenPromotePreservesAckedWrites(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	cfg := testConfig(clk)
	cfg.Replicas = 1
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	c := cl.NewClient(0, client.Options{UseRDMARead: true})
	const n = 300
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		if err := c.Put(k, []byte(fmt.Sprintf("val%d", i))); err != nil {
			t.Fatal(err)
		}
		// Interleave reads so both op kinds are in flight while writes replicate.
		if i%7 == 0 {
			if _, err := c.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}

	var victim uint32
	maxLen := -1
	for _, id := range cl.ShardIDs() {
		if l := cl.Shard(id).Store().Len(); l > maxLen {
			maxLen, victim = l, id
		}
	}

	// Graceful stop first: the replication flush runs to completion while
	// the process is still healthy. Then declare the primary dead (KillShard
	// also closes its coordination session, without which the promoted
	// primary cannot register) and promote explicitly — the
	// planned-maintenance path. The SWAT reactor sees the session close too,
	// so losing the promotion race to it is fine; either way the partition
	// must end with a promoted primary.
	cl.Shard(victim).Stop()
	if err := cl.KillShard(victim); err != nil {
		t.Fatal(err)
	}
	if err := cl.Promote(victim); err != nil {
		t.Logf("manual promote lost the race to SWAT: %v", err)
	}
	testutil.WaitUntil(t, 10*time.Second, func() bool {
		return cl.Promotions.Load() >= 1
	}, "promotion never happened")

	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("user%016d", i))
		v, err := c.Get(k)
		if err != nil || string(v) != fmt.Sprintf("val%d", i) {
			t.Fatalf("after stop+promote, get %s: %q %v", k, v, err)
		}
	}
	if err := c.Put([]byte("post-promote"), []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if v := testutil.Must1(c.Get([]byte("post-promote"))); string(v) != "yes" {
		t.Fatal("post-promote write lost")
	}
}
