// Allocation-budget gates for the request hot paths: the steady-state
// one-sided GET and the pipelined message GET must stay at ≤1 alloc/op.
// These are enforced as tests (not just bench numbers) so a regression
// fails CI rather than silently degrading ns/op.
package hydradb_test

import (
	"testing"

	"hydradb"
)

// TestAllocBudgetOneSidedGet: a warm GetInto into a reused buffer performs
// the RDMA Read, guardian check, and key validation without allocating.
func TestAllocBudgetOneSidedGet(t *testing.T) {
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.SharedPointerCache = false // private cache: byte-key map interning
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 1 << 16
	db, err := hydradb.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.NewClient()
	key := []byte("budgetkey8bytes!")
	if err := c.Put(key, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	// Warm: the first GetInto sizes the read scratch and value buffer.
	buf, err := c.GetInto(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var gerr error
		buf, gerr = c.GetInto(key, buf[:0])
		if gerr != nil || len(buf) != 32 {
			t.Fatalf("get: len=%d err=%v", len(buf), gerr)
		}
	})
	if allocs > 1 {
		t.Fatalf("one-sided GET allocates %.1f/op, budget is 1", allocs)
	}
	// The runs above must actually have exercised the one-sided path.
	snap := c.Counters().Snapshot()
	if snap.RDMAReadHits < 150 {
		t.Fatalf("only %d one-sided hits; path not exercised", snap.RDMAReadHits)
	}
}

// TestAllocBudgetPipelinedGet: a steady-state MultiGet batch on the message
// path amortizes to ≤1 alloc per GET.
func TestAllocBudgetPipelinedGet(t *testing.T) {
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.DisableRDMARead = true
	opts.SharedPointerCache = false
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 1 << 16
	db, err := hydradb.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.NewClient()
	const batch = 16
	keys := make([][]byte, batch)
	for i := range keys {
		keys[i] = []byte{byte('a' + i), 'k', 'e', 'y'}
		if err := c.Put(keys[i], make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: first batch grows the pipeline scratch.
	if _, err := c.MultiGet(keys); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		vals, gerr := c.MultiGet(keys)
		if gerr != nil || len(vals) != batch || len(vals[0]) != 32 {
			t.Fatalf("multiget: %d results, err=%v", len(vals), gerr)
		}
	})
	if perOp := allocs / batch; perOp > 1 {
		t.Fatalf("pipelined GET allocates %.2f/op, budget is 1", perOp)
	}
}
