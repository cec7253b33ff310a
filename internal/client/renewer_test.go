package client

import (
	"sync"
	"testing"
	"time"

	"hydradb/internal/testutil"
)

func TestRenewerScanOnce(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewCache()
	worker := env.newClient(t, Options{UseRDMARead: true, Cache: shared})
	renewClient := env.newClient(t, Options{UseRDMARead: true, Cache: shared})

	testutil.Must(worker.Put([]byte("hot"), []byte("v")))
	for i := 0; i < 10; i++ {
		testutil.Must1(worker.Get([]byte("hot")))
	}
	e, ok := shared.Get("hot")
	if !ok {
		t.Fatal("no cached pointer")
	}
	before := e.LeaseExp

	// Move close to expiry, then renew through the agent.
	env.clk.Advance(1500e6)
	r := NewRenewer(renewClient, 10*time.Millisecond, 2, 64*time.Second)
	if n := r.ScanOnce(); n != 1 {
		t.Fatalf("renewed %d keys, want 1", n)
	}
	e2, _ := shared.Get("hot")
	if e2.LeaseExp <= before {
		t.Fatal("lease not extended through the shared cache")
	}
	if r.TotalRenewed() != 1 {
		t.Fatalf("total = %d", r.TotalRenewed())
	}
	// Cold keys (below MinAccess) are skipped.
	testutil.Must(worker.Put([]byte("cold"), []byte("v")))
	env.clk.Advance(1500e6)
	r.ScanOnce()
	if r.TotalRenewed() > 2 { // "hot" may renew again; "cold" must not count extra
		t.Fatalf("renewed too many: %d", r.TotalRenewed())
	}
}

// TestRenewerAgainstReaders: the renewal agent republishes leases while
// worker clients read the same shared entries one-sided (run under -race).
func TestRenewerAgainstReaders(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewCache()
	workers := []*Client{
		env.newClient(t, Options{UseRDMARead: true, Cache: shared}),
		env.newClient(t, Options{UseRDMARead: true, Cache: shared}),
	}
	r := NewRenewer(env.newClient(t, Options{UseRDMARead: true, Cache: shared}), time.Millisecond, 1, time.Hour)
	key := []byte("hot")
	testutil.Must(workers[0].Put(key, []byte("v")))

	var wg sync.WaitGroup
	for _, c := range workers {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if v, err := c.Get(key); err != nil || string(v) != "v" {
					t.Errorf("get: %q %v", v, err)
					return
				}
			}
		}(c)
	}
	renewed := 0
	for i := 0; i < 20; i++ {
		renewed += r.ScanOnce()
	}
	wg.Wait()
	if renewed == 0 {
		t.Fatal("agent renewed nothing")
	}
	if e, ok := shared.GetBytes(key); !ok || e.Access.Load() == 0 {
		t.Fatalf("entry lost or its access count reset: %v", ok)
	}
}

func TestRenewerBackgroundLoop(t *testing.T) {
	env := newLiveEnv(t, false)
	shared := NewCache()
	worker := env.newClient(t, Options{UseRDMARead: true, Cache: shared})
	agentClient := env.newClient(t, Options{UseRDMARead: true, Cache: shared})

	testutil.Must(worker.Put([]byte("hot"), []byte("v")))
	for i := 0; i < 10; i++ {
		testutil.Must1(worker.Get([]byte("hot")))
	}
	env.clk.Advance(1900e6) // lease nearly out

	r := NewRenewer(agentClient, time.Millisecond, 2, 64*time.Second)
	r.Start()
	r.Start() // idempotent
	defer r.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for r.TotalRenewed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background renewer never renewed")
		}
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	r.Stop() // idempotent
	// The worker keeps hitting one-sided past the original expiry: the
	// renewal bought (at least) a fresh base term. Note the renewed term is
	// short — one-sided reads are invisible to the server (§4.2.3), so the
	// server-side popularity driving the term comes from renewals alone.
	env.clk.Advance(1e9)
	if _, err := worker.Get([]byte("hot")); err != nil {
		t.Fatal(err)
	}
	snap := worker.Counters().Snapshot()
	if snap.RDMAReadStale != 0 {
		t.Fatalf("renewed key went stale: %+v", snap)
	}
}
