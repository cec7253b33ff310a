package bench

import (
	"fmt"
	"testing"

	"hydradb/internal/testutil"
)

func TestAblationSubsharding(t *testing.T) {
	tbl := AblationSubsharding(tiny)
	pinTable(t, tbl, "65b41b7d73eeeb28")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	parse := func(i int) (qps int, mops float64) {
		testutil.Must1(fmt.Sscanf(tbl.Rows[i][1], "%d", &qps))
		testutil.Must1(fmt.Sscanf(tbl.Rows[i][2], "%f", &mops))
		return
	}
	qps8x1, _ := parse(0)
	qps1x8, _ := parse(3)
	if qps8x1 != 480 || qps1x8 != 60 {
		t.Fatalf("QP accounting: 8x1=%d 1x8=%d", qps8x1, qps1x8)
	}
	// Every configuration must complete and produce nonzero throughput.
	for i := range tbl.Rows {
		if _, m := parse(i); m <= 0 {
			t.Fatalf("row %d zero throughput", i)
		}
	}
}

func TestAblationSubshardingRelievesQPBottleneck(t *testing.T) {
	// At a scale where 8 independent shards exceed the QP threshold, the
	// 2x4 configuration (120 QPs, under threshold) must beat 8x1 (480 QPs).
	s := Scale{Name: "subsh", Records: 8000, Ops: 30000, Clients: 20}
	tbl := AblationSubsharding(s)
	pinTable(t, tbl, "7d5c3db9fac4cbc9")
	var m8x1, m2x4 float64
	for _, row := range tbl.Rows {
		if row[0] == "8x1" {
			testutil.Must1(fmt.Sscanf(row[2], "%f", &m8x1))
		}
		if row[0] == "2x4" {
			testutil.Must1(fmt.Sscanf(row[2], "%f", &m2x4))
		}
	}
	if m2x4 <= m8x1 {
		t.Fatalf("sub-sharding 2x4 (%.3f) did not beat 8x1 (%.3f)", m2x4, m8x1)
	}
}

func TestAblationPointerSharing(t *testing.T) {
	tbl := AblationPointerSharing(tiny)
	pinTable(t, tbl, "d66f59dc518cb0a3")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	get := func(workload, cache, col string) float64 {
		for _, row := range tbl.Rows {
			if row[0] == workload && row[1] == cache {
				var v float64
				idx := map[string]int{"mops": 2, "hits": 3, "invalid": 4, "misses": 5}[col]
				testutil.Must1(fmt.Sscanf(row[idx], "%f", &v))
				return v
			}
		}
		t.Fatalf("row %s/%s missing", workload, cache)
		return 0
	}
	// Sharing accelerates warm-up: fewer misses on the read-heavy workload.
	if get("zipf 90%GET", "shared", "misses") >= get("zipf 90%GET", "private", "misses") {
		t.Fatal("shared cache did not reduce misses")
	}
	// Sharing suppresses the invalidation cascade on the update-heavy one.
	if get("zipf 50%GET", "shared", "invalid") >= get("zipf 50%GET", "private", "invalid") {
		t.Fatal("shared cache did not reduce invalid hits")
	}
}

func TestAblationLeasePolicy(t *testing.T) {
	tbl := AblationLeasePolicy(tiny)
	pinTable(t, tbl, "f9771b36843e431d")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var shortInvalid, longInvalid float64
	testutil.Must1(fmt.Sscanf(tbl.Rows[0][3], "%f", &shortInvalid))
	testutil.Must1(fmt.Sscanf(tbl.Rows[1][3], "%f", &longInvalid))
	if shortInvalid <= longInvalid {
		t.Fatalf("short leases must force more invalid hits: %f vs %f", shortInvalid, longInvalid)
	}
}

func TestAblationNUMA(t *testing.T) {
	tbl := AblationNUMA(tiny)
	pinTable(t, tbl, "625ff4cc10123848")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i := 0; i < len(tbl.Rows); i += 2 {
		var aware, interleaved float64
		testutil.Must1(fmt.Sscanf(tbl.Rows[i][2], "%f", &aware))
		testutil.Must1(fmt.Sscanf(tbl.Rows[i+1][2], "%f", &interleaved))
		if aware <= interleaved {
			t.Fatalf("%s: NUMA-aware %.3f !> interleaved %.3f", tbl.Rows[i][0], aware, interleaved)
		}
	}
}
