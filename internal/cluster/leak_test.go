package cluster

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"hydradb/internal/client"
	"hydradb/internal/invariant"
	"hydradb/internal/kv"
	"hydradb/internal/testutil"
	"hydradb/internal/timing"
)

// TestClusterCloseNoLeakedGoroutines proves the full setup/teardown cycle —
// replicated groups, pipelined ablation off, SWAT watching, live traffic —
// leaves zero goroutines behind. The assertion is a plain count delta so it
// bites in the default build too; under -tags hydradebug the spawn registry
// additionally names any straggler.
func TestClusterCloseNoLeakedGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	clk := timing.NewManualClock(1e9)
	cfg := Config{
		ServerMachines:   3,
		ClientMachines:   2,
		ShardsPerMachine: 1,
		Replicas:         2,
		Store: kv.Config{
			ArenaBytes: 2 << 20,
			MaxItems:   8192,
			Clock:      clk,
		},
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Traffic plus one graceful move and one crash→promotion, so the stop
	// paths under test include the interesting ones, not just idle spawns.
	c := cl.NewClient(0, client.Options{RequestTimeout: time.Second, MaxRetries: 30})
	for i := 0; i < 50; i++ {
		if err := c.Put([]byte(fmt.Sprintf("leak%08d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ids := cl.ShardIDs()
	if err := cl.MoveShard(ids[0], 1); err != nil {
		t.Fatalf("move: %v", err)
	}
	before := cl.Promotions.Load()
	if err := cl.KillShard(ids[1]); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if !testutil.Eventually(15*time.Second, func() bool { return cl.Promotions.Load() > before }) {
		t.Fatal("promotion never happened after kill")
	}

	cl.Stop()
	invariant.AssertDrained("")

	// The runtime's count lags the final goroutine exits; settle, then judge.
	testutil.Eventually(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline })
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines: %d baseline, %d after Stop\n%s",
			baseline, n, buf[:runtime.Stack(buf, true)])
	}
}
