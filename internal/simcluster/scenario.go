package simcluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
)

// Named fleet scenarios: each is a reproducible experiment over the fleet
// simulator with pinned invariants, runnable from cmd/hydrasim and pinned
// as a seeded regression test. A scenario may run several fleets (Parts)
// to compare policies; headline numbers land in Metrics.

// ScaleKind picks the scenario problem size.
type ScaleKind string

// Scales: smoke is CI-sized (sub-second), full is the million-client
// configuration the ISSUE's acceptance run uses.
const (
	ScaleSmoke ScaleKind = "smoke"
	ScaleFull  ScaleKind = "full"
)

// ScenarioResult is a scenario run's canonical outcome. Hash covers the
// canonical JSON of everything except Violations and Hash itself.
type ScenarioResult struct {
	Scenario   string                 `json:"scenario"`
	Scale      string                 `json:"scale"`
	Seed       int64                  `json:"seed"`
	Result     *FleetResult           `json:"result,omitempty"`
	Parts      map[string]FleetResult `json:"parts,omitempty"`
	Metrics    map[string]float64     `json:"metrics,omitempty"`
	Hash       string                 `json:"hash,omitempty"`
	Violations []string               `json:"violations,omitempty"`
}

// Scenario is one named experiment.
type Scenario struct {
	Name        string
	Description string
	// Run builds and executes the fleet(s) for one (scale, seed, bug).
	Run func(scale ScaleKind, seed int64, bug BugKind) (*ScenarioResult, error)
	// Check returns invariant violations (empty = pass). Checks must hold
	// for every seed at both scales when bug == BugNone, and must fail for
	// the scenario's seeded bug — the suite's self-test.
	Check func(r *ScenarioResult) []string
}

// Scenarios lists the registry in stable order.
func Scenarios() []Scenario {
	return []Scenario{
		routingConvergenceScenario(),
		promotionStormScenario(),
		renewalHerdScenario(),
		costCurveScenario(),
	}
}

// FindScenario looks a scenario up by name.
func FindScenario(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RunScenario executes one scenario end to end: run, canonical hash, checks.
func RunScenario(name string, scale ScaleKind, seed int64, bug BugKind) (*ScenarioResult, error) {
	sc, ok := FindScenario(name)
	if !ok {
		return nil, fmt.Errorf("simcluster: unknown scenario %q", name)
	}
	if !bug.known() {
		return nil, fmt.Errorf("simcluster: unknown bug %q", bug)
	}
	res, err := sc.Run(scale, seed, bug)
	if err != nil {
		return nil, err
	}
	res.Scenario = name
	res.Scale = string(scale)
	res.Seed = seed
	canon, err := res.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	res.Hash = hashBytes(canon)
	res.Violations = sc.Check(res)
	return res, nil
}

// CanonicalJSON renders the hash-covered portion of the result: struct
// field order plus json.Marshal's sorted map keys make it byte-stable.
func (r *ScenarioResult) CanonicalJSON() ([]byte, error) {
	shadow := *r
	shadow.Hash = ""
	shadow.Violations = nil
	b, err := json.Marshal(&shadow)
	if err != nil {
		return nil, fmt.Errorf("simcluster: canonical result: %w", err)
	}
	return b, nil
}

// hashBytes is the FNV-1a 64 pin, matching the ycsb golden-hash style.
func hashBytes(b []byte) string {
	h := fnv.New64a()
	//hydralint:ignore error-discipline hash.Hash Write never fails
	_, _ = h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// opsConserved checks the fundamental accounting identity: admitted
// operations either complete in some class or fail — nothing vanishes.
// (BugDropBounces violates exactly this.)
func opsConserved(r *FleetResult) []string {
	sum := r.OpsFailed
	for _, cr := range r.Classes {
		sum += cr.Ops
	}
	tol := math.Max(1e-6*r.OpsTotal, 0.01)
	if math.Abs(sum-r.OpsTotal) > tol {
		return []string{fmt.Sprintf("ops not conserved: classes+failed=%.3f vs total=%.3f", sum, r.OpsTotal)}
	}
	return nil
}

// --- routing-convergence -------------------------------------------------

func routingConvergenceConfig(scale ScaleKind) FleetConfig {
	cfg := FleetConfig{
		ShardsPerMachine:   10,
		TracersPerMachine:  1,
		RecordsPerShard:    64,
		OpsPerClientPerSec: 500,
		ReadPct:            95,
		TickNs:             10_000_000,
		SamplesPerTick:     100,
	}
	switch scale {
	case ScaleFull:
		cfg.Machines = 100 // 1000 shards
		cfg.ClientsPerMachine = 10_000
		cfg.DurationNs = 2_000_000_000
		cfg.SamplesPerTick = 200
		cfg.Events = []FleetEvent{{AtNs: 500_000_000, Kind: EventReconfigure, AddShards: 50}}
	default:
		cfg.Machines = 10 // 100 shards
		cfg.ClientsPerMachine = 1_000
		cfg.DurationNs = 800_000_000
		cfg.Events = []FleetEvent{{AtNs: 200_000_000, Kind: EventReconfigure, AddShards: 8}}
	}
	return cfg
}

func routingConvergenceScenario() Scenario {
	return Scenario{
		Name: "routing-convergence",
		Description: "reconfigure the ring mid-run (shards added) and measure how fast a " +
			"bounce-driven cohort converges back to fresh routing tables",
		Run: func(scale ScaleKind, seed int64, bug BugKind) (*ScenarioResult, error) {
			cfg := routingConvergenceConfig(scale)
			cfg.Seed = seed
			cfg.Bug = bug
			s, err := NewFleetSim(cfg)
			if err != nil {
				return nil, err
			}
			r := s.Run()
			res := &ScenarioResult{Result: &r, Metrics: map[string]float64{}}
			if r.Reconfig != nil {
				res.Metrics["moved_frac"] = r.Reconfig.MovedFrac
				res.Metrics["bounced_ops"] = r.Reconfig.BouncedOps
				if r.Reconfig.ConvergedNs > 0 {
					res.Metrics["convergence_ms"] = round3(float64(r.Reconfig.ConvergedNs-r.Reconfig.AtNs) / 1e6)
				}
			}
			return res, nil
		},
		Check: func(res *ScenarioResult) []string {
			r := res.Result
			var v []string
			v = append(v, opsConserved(r)...)
			if r.Reconfig == nil {
				return append(v, "no reconfiguration recorded")
			}
			if r.Reconfig.MovedFrac <= 0 || r.Reconfig.MovedFrac > 0.5 {
				v = append(v, fmt.Sprintf("moved_frac %.3f outside (0, 0.5]", r.Reconfig.MovedFrac))
			}
			if r.Reconfig.ConvergedNs == 0 {
				v = append(v, "cohort never converged back to fresh routing tables")
			} else if ms := float64(r.Reconfig.ConvergedNs-r.Reconfig.AtNs) / 1e6; ms > 600 {
				v = append(v, fmt.Sprintf("convergence took %.0f ms (> 600 ms bound)", ms))
			}
			if r.Reconfig.BouncedOps <= 0 {
				v = append(v, "no WrongShard bounces despite a reconfiguration")
			}
			if r.Tracer.Bounces == 0 {
				v = append(v, "tracer clients observed no WrongShard bounce")
			}
			if r.Tracer.Hits == 0 {
				v = append(v, "tracer clients never hit the pointer cache")
			}
			return v
		},
	}
}

// --- promotion-storm -----------------------------------------------------

func promotionStormConfig(scale ScaleKind) FleetConfig {
	cfg := FleetConfig{
		TracersPerMachine:  1,
		RecordsPerShard:    64,
		OpsPerClientPerSec: 200,
		ReadPct:            90,
		TickNs:             10_000_000,
		SamplesPerTick:     100,
	}
	switch scale {
	case ScaleFull:
		cfg.Machines = 100
		cfg.ShardsPerMachine = 10
		cfg.ClientsPerMachine = 10_000
		cfg.DurationNs = 1_500_000_000
		// Correlated failure: a whole chassis of three machines at once.
		cfg.Events = []FleetEvent{
			{AtNs: 500_000_000, Kind: EventKill, Machine: 3},
			{AtNs: 500_000_000, Kind: EventKill, Machine: 4},
			{AtNs: 500_000_000, Kind: EventKill, Machine: 5},
		}
	default:
		cfg.Machines = 10
		cfg.ShardsPerMachine = 4
		cfg.ClientsPerMachine = 1_000
		cfg.DurationNs = 600_000_000
		cfg.Events = []FleetEvent{
			{AtNs: 150_000_000, Kind: EventKill, Machine: 2},
			{AtNs: 150_000_000, Kind: EventKill, Machine: 3},
		}
	}
	return cfg
}

func promotionStormScenario() Scenario {
	return Scenario{
		Name: "promotion-storm",
		Description: "kill a correlated group of machines and verify the SWAT drains the " +
			"promotion backlog within the recovery bound",
		Run: func(scale ScaleKind, seed int64, bug BugKind) (*ScenarioResult, error) {
			cfg := promotionStormConfig(scale)
			cfg.Seed = seed
			cfg.Bug = bug
			s, err := NewFleetSim(cfg)
			if err != nil {
				return nil, err
			}
			r := s.Run()
			res := &ScenarioResult{Result: &r, Metrics: map[string]float64{}}
			if r.Promotion != nil {
				res.Metrics["peak_backlog"] = float64(r.Promotion.PeakBacklog)
				res.Metrics["recovery_ms"] = round3(float64(r.Promotion.RecoveryNs) / 1e6)
				res.Metrics["failed_ops"] = r.OpsFailed
			}
			return res, nil
		},
		Check: func(res *ScenarioResult) []string {
			r := res.Result
			var v []string
			v = append(v, opsConserved(r)...)
			p := r.Promotion
			if p == nil {
				return append(v, "no kills recorded")
			}
			if p.Promoted != p.KilledShards {
				v = append(v, fmt.Sprintf("promotion backlog stuck: %d of %d shards promoted", p.Promoted, p.KilledShards))
			}
			if p.PeakBacklog != p.KilledShards {
				v = append(v, fmt.Sprintf("peak backlog %d, want %d (correlated kill lands at once)", p.PeakBacklog, p.KilledShards))
			}
			if p.Promoted == p.KilledShards {
				if p.RecoveryNs <= 0 {
					v = append(v, "recovery time not recorded")
				} else if p.RecoveryNs > 200_000_000 {
					v = append(v, fmt.Sprintf("recovery took %.0f ms (> 200 ms bound)", float64(p.RecoveryNs)/1e6))
				}
			}
			if r.OpsFailed <= 0 {
				v = append(v, "no failed ops during the unavailability window")
			}
			return v
		},
	}
}

// --- renewal-herd --------------------------------------------------------

func renewalHerdConfig(scale ScaleKind) FleetConfig {
	cfg := FleetConfig{
		ShardsPerMachine:   10,
		TracersPerMachine:  1,
		RecordsPerShard:    64,
		OpsPerClientPerSec: 0, // isolate the renewal traffic
		ReadPct:            100,
		TickNs:             10_000_000,
		SamplesPerTick:     0,
		LeaseTermNs:        200_000_000,
		DurationNs:         1_000_000_000,
	}
	switch scale {
	case ScaleFull:
		cfg.Machines = 100
		cfg.ClientsPerMachine = 10_000
	default:
		cfg.Machines = 10
		cfg.ClientsPerMachine = 1_000
	}
	return cfg
}

func renewalHerdScenario() Scenario {
	return Scenario{
		Name: "renewal-herd",
		Description: "lease-renewal thundering herd: synchronized renewals vs jittered " +
			"renewals vs token-bucket admission, comparing peak per-tick renewal load",
		Run: func(scale ScaleKind, seed int64, bug BugKind) (*ScenarioResult, error) {
			parts := map[string]FleetResult{}
			run := func(name string, mutate func(*FleetConfig)) error {
				cfg := renewalHerdConfig(scale)
				cfg.Seed = seed
				cfg.Bug = bug
				mutate(&cfg)
				s, err := NewFleetSim(cfg)
				if err != nil {
					return err
				}
				parts[name] = s.Run()
				return nil
			}
			if err := run("sync", func(*FleetConfig) {}); err != nil {
				return nil, err
			}
			if err := run("jitter", func(c *FleetConfig) { c.RenewJitterNs = c.LeaseTermNs / 2 }); err != nil {
				return nil, err
			}
			clients := float64(renewalHerdConfig(scale).Machines) * float64(renewalHerdConfig(scale).ClientsPerMachine)
			if err := run("bucket", func(c *FleetConfig) {
				c.Admission = &TokenBucket{RatePerSec: 2 * clients, Burst: 0.05 * clients}
			}); err != nil {
				return nil, err
			}
			sync, jit := parts["sync"], parts["jitter"]
			res := &ScenarioResult{Parts: parts, Metrics: map[string]float64{
				"peak_sync":   sync.PeakRenewPerTick,
				"peak_jitter": jit.PeakRenewPerTick,
				"peak_bucket": parts["bucket"].PeakRenewPerTick,
			}}
			if sync.PeakRenewPerTick > 0 {
				res.Metrics["jitter_ratio"] = round3(jit.PeakRenewPerTick / sync.PeakRenewPerTick)
			}
			return res, nil
		},
		Check: func(res *ScenarioResult) []string {
			var v []string
			sync, okS := res.Parts["sync"]
			jit, okJ := res.Parts["jitter"]
			bucket, okB := res.Parts["bucket"]
			if !okS || !okJ || !okB {
				return []string{"missing herd parts"}
			}
			clients := float64(sync.Clients)
			if sync.PeakRenewPerTick < 0.9*clients {
				v = append(v, fmt.Sprintf("sync herd peak %.0f, want >= 0.9x clients (%.0f)", sync.PeakRenewPerTick, clients))
			}
			if jit.PeakRenewPerTick > 0.2*sync.PeakRenewPerTick {
				v = append(v, fmt.Sprintf("jitter failed to flatten the herd: peak %.0f vs sync %.0f",
					jit.PeakRenewPerTick, sync.PeakRenewPerTick))
			}
			if jit.RenewTotal < 0.9*sync.RenewTotal {
				v = append(v, "jitter lost renewals instead of spreading them")
			}
			if bucket.PeakRenewPerTick > 0.1*sync.PeakRenewPerTick {
				v = append(v, fmt.Sprintf("token bucket failed to cap the herd: peak %.0f", bucket.PeakRenewPerTick))
			}
			if bucket.RenewShed <= 0 {
				v = append(v, "token bucket shed nothing despite the herd exceeding its rate")
			}
			return v
		},
	}
}

// --- cost-curve ----------------------------------------------------------

func costCurveSizes(scale ScaleKind) []int {
	if scale == ScaleFull {
		return []int{25, 50, 100}
	}
	return []int{2, 4, 8}
}

func costCurveScenario() Scenario {
	return Scenario{
		Name: "cost-curve",
		Description: "sweep the machine count at fixed per-machine load and pin that " +
			"throughput scales linearly while per-shard load stays flat (cost.go's capacity model)",
		Run: func(scale ScaleKind, seed int64, bug BugKind) (*ScenarioResult, error) {
			parts := map[string]FleetResult{}
			metrics := map[string]float64{}
			for _, n := range costCurveSizes(scale) {
				cfg := FleetConfig{
					Machines:           n,
					ShardsPerMachine:   10,
					ClientsPerMachine:  2_000,
					TracersPerMachine:  1,
					RecordsPerShard:    64,
					OpsPerClientPerSec: 200,
					ReadPct:            95,
					TickNs:             10_000_000,
					DurationNs:         500_000_000,
					SamplesPerTick:     50,
					Seed:               seed,
					Bug:                bug,
				}
				s, err := NewFleetSim(cfg)
				if err != nil {
					return nil, err
				}
				r := s.Run()
				name := fmt.Sprintf("m%03d", n)
				parts[name] = r
				metrics["mops_"+name] = r.ThroughputMops
			}
			return &ScenarioResult{Parts: parts, Metrics: metrics}, nil
		},
		Check: func(res *ScenarioResult) []string {
			var v []string
			sizes := costCurveSizes(ScaleKind(res.Scale))
			prevMops := 0.0
			prevPerMachine := -1.0
			for _, n := range sizes {
				r, ok := res.Parts[fmt.Sprintf("m%03d", n)]
				if !ok {
					return []string{fmt.Sprintf("missing part m%03d", n)}
				}
				v = append(v, opsConserved(&r)...)
				if r.ThroughputMops <= prevMops {
					v = append(v, fmt.Sprintf("throughput not monotonic at %d machines: %.3f <= %.3f Mops",
						n, r.ThroughputMops, prevMops))
				}
				perMachine := r.ThroughputMops / float64(n)
				if prevPerMachine >= 0 && math.Abs(perMachine-prevPerMachine) > 0.05*prevPerMachine {
					v = append(v, fmt.Sprintf("per-machine throughput drifted at %d machines: %.4f vs %.4f",
						n, perMachine, prevPerMachine))
				}
				prevMops = r.ThroughputMops
				prevPerMachine = perMachine
				if r.PeakShardUtil >= 1.0 {
					v = append(v, fmt.Sprintf("shards saturated at %d machines (peak util %.2f)", n, r.PeakShardUtil))
				}
			}
			return v
		},
	}
}
