// Allocation-budget gates for the request hot paths: the steady-state
// one-sided GET allocates nothing, a pipelined message GET at most once,
// and a MultiPut of cached keys nothing. These are
// enforced as tests (not just bench numbers) so a regression fails CI
// rather than silently degrading ns/op.
package hydradb_test

import (
	"fmt"
	"testing"

	"hydradb"
	"hydradb/internal/invariant"
)

// budgetDB starts a one-shard deployment for an allocation budget.
func budgetDB(t *testing.T, edit func(*hydradb.Options)) *hydradb.DB {
	t.Helper()
	opts := hydradb.DefaultOptions()
	opts.ShardsPerMachine = 1
	opts.ArenaBytesPerShard = 16 << 20
	opts.MaxItemsPerShard = 1 << 16
	edit(&opts)
	db, err := hydradb.Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

// cacheModes runs a budget with the default shared pointer cache and with
// a private one.
func cacheModes(t *testing.T, run func(t *testing.T, edit func(*hydradb.Options))) {
	for _, shared := range []bool{true, false} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			run(t, func(o *hydradb.Options) { o.SharedPointerCache = shared })
		})
	}
}

// TestAllocBudgetOneSidedGet: a warm GetInto into a reused buffer performs
// the cache lookup, RDMA Read, guardian check, and key validation without
// allocating, whichever cache mode the client runs in.
func TestAllocBudgetOneSidedGet(t *testing.T) {
	cacheModes(t, func(t *testing.T, edit func(*hydradb.Options)) {
		c := budgetDB(t, edit).NewClient()
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
		if allocs != 0 {
			t.Fatalf("one-sided GET allocates %.1f/op, budget is 0", allocs)
		}
		// The runs above must actually have exercised the one-sided path.
		snap := c.Counters().Snapshot()
		if snap.RDMAReadHits < 150 {
			t.Fatalf("only %d one-sided hits; path not exercised", snap.RDMAReadHits)
		}
	})
}

// TestAllocBudgetMultiPutCached: re-putting keys whose pointers are already
// cached allocates nothing: the new pointer is written inline into the
// key's slot, and the key string already exists.
func TestAllocBudgetMultiPutCached(t *testing.T) {
	if invariant.Enabled {
		t.Skip("hydradebug: the shard's ownership assertion allocates once per write")
	}
	cacheModes(t, func(t *testing.T, edit func(*hydradb.Options)) {
		c := budgetDB(t, edit).NewClient()
		const batch = 16
		pairs := make([]hydradb.KV, batch)
		for i := range pairs {
			pairs[i] = hydradb.KV{Key: []byte(fmt.Sprintf("budget-multiput-%02d", i)), Val: make([]byte, 32)}
		}
		// Warm: the first batch inserts the keys and grows the scratch.
		if err := c.MultiPut(pairs); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := c.MultiPut(pairs); err != nil {
				t.Fatal(err)
			}
		})
		if perOp := allocs / batch; perOp > 0 {
			t.Fatalf("MultiPut of cached keys allocates %.2f/op, budget is 0", perOp)
		}
		if n := c.Cache().Len(); n != batch {
			t.Fatalf("cache holds %d pointers, want %d", n, batch)
		}
	})
}

// TestAllocBudgetPipelinedGet: a steady-state MultiGet batch on the message
// path amortizes to ≤1 alloc per GET.
func TestAllocBudgetPipelinedGet(t *testing.T) {
	c := budgetDB(t, func(o *hydradb.Options) {
		o.DisableRDMARead = true
		o.SharedPointerCache = false
	}).NewClient()
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
