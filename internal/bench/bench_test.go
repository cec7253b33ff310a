package bench

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"hydradb/internal/stats"
	"hydradb/internal/testutil"
	"hydradb/internal/ycsb"
)

// tiny keeps harness tests fast while still exercising every code path.
var tiny = Scale{Name: "tiny", Records: 2000, Ops: 8000, Clients: 10}

// pinTable compares the FNV-1a 64 hash of the rendered table with a pinned
// value, in the style of the fleet scenarios' golden hashes: the shape
// assertions below bound a figure loosely, the pin catches any change to
// its exact output. If a figure changed ON PURPOSE, update the constant and
// say why in the commit message.
func pinTable(t *testing.T, tbl *stats.Table, want string) {
	t.Helper()
	h := fnv.New64a()
	testutil.Must1(h.Write([]byte(tbl.String())))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Errorf("%q: hash %s, want %s", tbl.Title, got, want)
	}
}

func TestFig09ProducesAllRows(t *testing.T) {
	tbl := Fig09(tiny)
	pinTable(t, tbl, "e55c8d62a94f7226")
	if len(tbl.Rows) != 6*4 {
		t.Fatalf("rows = %d, want 24", len(tbl.Rows))
	}
	out := tbl.String()
	for _, want := range []string{"HydraDB", "Memcached", "Redis", "RAMCloud", "(a) zipf"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// HydraDB must lead every workload: each baseline's "vs HydraDB" < 1x.
	for _, row := range tbl.Rows {
		if row[1] == "HydraDB" {
			continue
		}
		var ratio float64
		testutil.Must1(fmt.Sscanf(row[5], "%fx", &ratio))
		if ratio >= 1 {
			t.Fatalf("%s %s beats HydraDB: %s", row[0], row[1], row[5])
		}
	}
}

func TestFig10OrderingHolds(t *testing.T) {
	tbl := Fig10(tiny)
	pinTable(t, tbl, "30ef3e0cddd84340")
	if len(tbl.Rows) != 6*4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// For every workload: Write Only and Write+Read improve on Send/Recv.
	for _, row := range tbl.Rows {
		if row[1] == "RDMA Write Only" || row[1] == "RDMA Write + Read" {
			if !strings.HasPrefix(row[4], "+") {
				t.Fatalf("%s %s did not improve on Send/Recv: %s", row[0], row[1], row[4])
			}
		}
	}
}

func TestFig11Accounting(t *testing.T) {
	tbl := Fig11(tiny)
	pinTable(t, tbl, "89c9a0d4f7f1dd28")
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Zipfian 100% GET must out-hit uniform 100% GET (the paper's Fig. 11
	// asymmetry).
	var zipfRate, unifRate float64
	for _, row := range tbl.Rows {
		if row[0] == "(c) zipf 100%GET" {
			testutil.Must1(fmt.Sscanf(row[4], "%f%%", &zipfRate))
		}
		if row[0] == "(f) unif 100%GET" {
			testutil.Must1(fmt.Sscanf(row[4], "%f%%", &unifRate))
		}
	}
	if zipfRate <= unifRate {
		t.Fatalf("zipf hit rate %.1f%% !> uniform %.1f%%", zipfRate, unifRate)
	}
}

func TestSectionClaims(t *testing.T) {
	tbl := SectionClaims(tiny)
	pinTable(t, tbl, "bec5499e426971ce")
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[1], "+") {
			t.Fatalf("Write vs Send/Recv not positive for %s: %s", row[0], row[1])
		}
		if !strings.HasPrefix(row[3], "+") {
			t.Fatalf("Single vs Pipeline not positive for %s: %s", row[0], row[3])
		}
	}
}

func TestFig12Tables(t *testing.T) {
	so := Fig12ScaleOut(tiny, ycsb.Uniform)
	pinTable(t, so, "4c911d73706545cc")
	if len(so.Rows) != 7 {
		t.Fatalf("scale-out rows = %d", len(so.Rows))
	}
	// Uniform 50/50 must scale: 7 servers >= 3x one server.
	var norm7 float64
	testutil.Must1(fmt.Sscanf(so.Rows[6][1], "%f", &norm7))
	if norm7 < 3 {
		t.Fatalf("uniform 50/50 scale-out at 7 servers only %.2fx", norm7)
	}
	su := Fig12ScaleUp(tiny, ycsb.Zipfian)
	pinTable(t, su, "b1378ec294a4e37d")
	if len(su.Rows) != 8 {
		t.Fatalf("scale-up rows = %d", len(su.Rows))
	}
}

func TestFig13Shape(t *testing.T) {
	tbl := Fig13(tiny)
	pinTable(t, tbl, "3c954aad8979616e")
	// 5 client counts x 5 rows (none + 2 modes x 2 replica counts).
	if len(tbl.Rows) != 5*5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// For each client count: logging overhead < strict overhead.
	byKey := map[string]float64{}
	for _, row := range tbl.Rows {
		var lat float64
		testutil.Must1(fmt.Sscanf(row[3], "%f", &lat))
		byKey[row[0]+"/"+row[1]+"/"+row[2]] = lat
	}
	for _, clients := range []string{"1", "4", "16"} {
		base := byKey[clients+"/none/0"]
		log1 := byKey[clients+"/RDMA logging/1"]
		strict1 := byKey[clients+"/strict req/ack/1"]
		if !(base < log1 && log1 < strict1) {
			t.Fatalf("clients=%s ordering: base=%.1f log=%.1f strict=%.1f",
				clients, base, log1, strict1)
		}
	}
}

func TestFig02Speedups(t *testing.T) {
	tbl := Fig02(tiny)
	if len(tbl.Rows) != len(fig02Apps)+1 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var dfsio, spark float64
	var dfsioTCP float64
	for _, row := range tbl.Rows {
		if row[0] == "Hadoop TestDFSIO-read" {
			testutil.Must1(fmt.Sscanf(row[2], "%fx", &dfsio))
			testutil.Must1(fmt.Sscanf(row[3], "%fx", &dfsioTCP))
		}
		if row[0] == "Spark PageRank" {
			testutil.Must1(fmt.Sscanf(row[2], "%fx", &spark))
		}
	}
	// Paper shape: I/O-bound Hadoop apps near ~18x with RDMA, Spark apps a
	// few to tens of percent, and RDMA always above TCP.
	if dfsio < 8 || dfsio > 40 {
		t.Fatalf("TestDFSIO RDMA speedup %.1fx out of band", dfsio)
	}
	if dfsioTCP >= dfsio {
		t.Fatalf("TCP speedup %.1fx !< RDMA %.1fx", dfsioTCP, dfsio)
	}
	if spark < 1.0 || spark > 1.5 {
		t.Fatalf("Spark PageRank speedup %.2fx out of band", spark)
	}
}

func TestFig03Shape(t *testing.T) {
	tbl := Fig03(tiny)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	parse := func(i, col int) float64 {
		var v float64
		testutil.Must1(fmt.Sscanf(tbl.Rows[i][col], "%f", &v))
		return v
	}
	// HydraDB keeps scaling to 32 engines; the DB plateaus long before.
	h1, h32 := parse(0, 1), parse(5, 1)
	d8, d32 := parse(3, 2), parse(5, 2)
	if h32 < h1*16 {
		t.Fatalf("hydra did not scale: %f -> %f", h1, h32)
	}
	if d32 > d8*1.3 {
		t.Fatalf("DB did not plateau: %f -> %f", d8, d32)
	}
	// Order-of-magnitude gap at 32 engines (paper: "up to an order of
	// magnitude higher throughput").
	if h32/d32 < 5 {
		t.Fatalf("gap at 32 engines only %.1fx", h32/d32)
	}
}
