// Package bench regenerates every table and figure of the paper's
// evaluation (§2 and §6). Each FigNN function runs the corresponding
// experiment — workload generation, deployment, parameter sweep, baselines —
// and returns formatted tables with the same rows/series the paper reports.
//
// Experiments run on the deterministic virtual-time testbed (see
// internal/sim and internal/simcluster and DESIGN.md §2): absolute numbers
// are not expected to match the authors' hardware, but the shapes — who
// wins, by what factor, where crossovers and saturation points fall — are
// the reproduction targets recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"sync"

	"hydradb/internal/simcluster"
	"hydradb/internal/ycsb"
)

// Scale selects experiment sizing. The paper uses 60 M requests over 60 M
// records with 50 clients; Full is a laptop-sized rendition preserving the
// request:record ratio, Quick keeps CI fast.
type Scale struct {
	Name    string
	Records int64
	Ops     int
	Clients int
}

// Predefined scales.
var (
	Quick = Scale{Name: "quick", Records: 20_000, Ops: 60_000, Clients: 20}
	Full  = Scale{Name: "full", Records: 400_000, Ops: 1_200_000, Clients: 50}
)

// The paper's six YCSB workloads in Figure 9/10 order:
// (a) 50% GET zipfian, (b) 90% GET zipfian, (c) 100% GET zipfian,
// (d) 50% GET uniform, (e) 90% GET uniform, (f) 100% GET uniform.
type workloadDef struct {
	Tag     string
	ReadPct int
	Dist    ycsb.Distribution
}

var sixWorkloads = []workloadDef{
	{"(a) zipf 50%GET", 50, ycsb.Zipfian},
	{"(b) zipf 90%GET", 90, ycsb.Zipfian},
	{"(c) zipf 100%GET", 100, ycsb.Zipfian},
	{"(d) unif 50%GET", 50, ycsb.Uniform},
	{"(e) unif 90%GET", 90, ycsb.Uniform},
	{"(f) unif 100%GET", 100, ycsb.Uniform},
}

var (
	wlMu    sync.Mutex
	wlCache = map[string]*ycsb.Workload{}
)

// workload returns (and caches) a generated workload.
func workload(s Scale, readPct int, dist ycsb.Distribution) *ycsb.Workload {
	key := fmt.Sprintf("%s/%d/%v", s.Name, readPct, dist)
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[key]; ok {
		return w
	}
	w, err := ycsb.Generate(ycsb.StandardSpec(s.Records, s.Ops, readPct, dist, 20150415))
	if err != nil {
		panic(err)
	}
	wlCache[key] = w
	return w
}

// insertWorkload builds the INSERT-only stream of the Fig. 13 experiment.
func insertWorkload(s Scale, ops int) *ycsb.Workload {
	key := fmt.Sprintf("%s/ins/%d", s.Name, ops)
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[key]; ok {
		return w
	}
	w, err := ycsb.Generate(ycsb.Spec{
		Records: 1024, Operations: ops, InsertProportion: 1,
		Dist: ycsb.Uniform, KeyLen: 16, ValueLen: 32, Seed: 20150415,
	})
	if err != nil {
		panic(err)
	}
	wlCache[key] = w
	return w
}

// paperTestbed is the §6 single-server setup: 8 machines, machine 0 runs 4
// shards, clients spread over machines 2..7 (machine 1 hosts
// ZooKeeper/SWAT in the paper). The run lasts until the workload is
// exhausted.
func paperTestbed(s Scale, w *ycsb.Workload, mode simcluster.Mode) simcluster.FleetConfig {
	return simcluster.FleetConfig{
		Machines:         8,
		ServerMachines:   []int{0},
		ShardsPerMachine: 4,
		Clients:          s.Clients,
		ClientMachines:   []int{2, 3, 4, 5, 6, 7},
		Mode:             mode,
		SharedCache:      true,
		Workload:         w,
		Seed:             1,
	}
}

func runHydra(cfg simcluster.FleetConfig, label string) simcluster.Result {
	fs, err := simcluster.NewFleetSim(cfg)
	if err != nil {
		panic(err)
	}
	fs.Run()
	return fs.Result(label)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func pct(new, old float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new/old-1)*100)
}
