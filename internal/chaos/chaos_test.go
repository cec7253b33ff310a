package chaos

import (
	"reflect"
	"strings"
	"testing"

	"hydradb/internal/rdma"
	"hydradb/internal/testutil"
)

func TestScheduleRoundTrip(t *testing.T) {
	for _, name := range Scenarios() {
		s := testutil.Must1(ForScenario(name, 42))
		line := s.String()
		back, err := Parse(line)
		if err != nil {
			t.Fatalf("%s: parse %q: %v", name, line, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("%s: round trip lost data:\n  %+v\n  %+v", name, s, back)
		}
	}
}

func TestScheduleStringIsOneLine(t *testing.T) {
	s := testutil.Must1(ForScenario("crash-primary", 7))
	if strings.ContainsAny(s.String(), "\n\r") {
		t.Fatalf("schedule line contains newline: %q", s.String())
	}
}

func TestParseRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"v2 seed=1",
		"v1 bogus",
		"v1 name=x seed=1 clients=0 ops=10 keys=4",
		"v1 name=x seed=1 clients=1 ops=10 keys=4 drop=20000",
		"v1 name=x seed=1 clients=1 ops=10 keys=4 events=explode@5",
		"v1 name=x seed=1 clients=1 ops=10 keys=4 events=kill:0",
		"v1 name=x seed=1 clients=1 ops=10 keys=4 delay=80",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}

func TestForScenarioUnknown(t *testing.T) {
	if _, err := ForScenario("nope", 1); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// fakeLinks builds NIC pairs for injector policy tests.
func fakeLinks(t *testing.T) (cli, srv0, srv1 *rdma.NIC) {
	t.Helper()
	f := rdma.NewFabric(rdma.Config{})
	return f.NewNIC("client-0"), f.NewNIC("server-0"), f.NewNIC("server-1")
}

func TestInjectorDeterministic(t *testing.T) {
	s := testutil.Must1(ForScenario("crash-primary", 99))
	cli, srv, _ := fakeLinks(t)
	outcomes := func(seed uint64) []rdma.FaultOutcome {
		s.Seed = seed
		in := NewInjector(s)
		var out []rdma.FaultOutcome
		for i := 0; i < 5000; i++ {
			out = append(out, in.Hook(rdma.VerbWrite, cli, srv, 64))
		}
		return out
	}
	a, b := outcomes(99), outcomes(99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault decision streams")
	}
	if reflect.DeepEqual(a, outcomes(100)) {
		t.Fatal("different seeds produced identical decision streams")
	}
	injected := 0
	for _, o := range a {
		if o.Drop || o.Duplicate || o.Reorder || o.DelayNs > 0 || o.Err != nil {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("5000 rolls injected nothing; rates are dead")
	}
}

func TestInjectorServerLinkPolicy(t *testing.T) {
	// Even a 100% drop rate must never silently drop a server↔server op.
	s := testutil.Must1(ForScenario("crash-primary", 1))
	s.DropRate, s.DupRate, s.ReorderRate = 10000, 0, 0
	in := NewInjector(s)
	cli, srv0, srv1 := fakeLinks(t)
	for i := 0; i < 200; i++ {
		if o := in.Hook(rdma.VerbWrite, srv0, srv1, 64); o.Drop || o.Duplicate || o.Reorder || o.Err != nil {
			t.Fatalf("server link got probabilistic fault %+v", o)
		}
	}
	if o := in.Hook(rdma.VerbWrite, cli, srv0, 64); !o.Drop {
		t.Fatal("client link with drop=10000 did not drop")
	}

	// Partitions hit server links only, and heal lifts them.
	in.Partition("server-1")
	if o := in.Hook(rdma.VerbWrite, srv0, srv1, 64); o.Err == nil {
		t.Fatal("partitioned server link passed")
	}
	if o := in.Hook(rdma.VerbSend, srv1, srv0, 64); o.Err == nil {
		t.Fatal("partition must cut both directions")
	}
	if o := in.Hook(rdma.VerbWrite, cli, srv1, 64); o.Err != nil {
		t.Fatal("client traffic to a partitioned machine must still flow")
	}
	in.Heal()
	if o := in.Hook(rdma.VerbWrite, srv0, srv1, 64); o.Err != nil {
		t.Fatal("heal did not lift the partition")
	}

	// Quiesce kills everything, including client-link faults.
	in.Quiesce()
	if o := in.Hook(rdma.VerbWrite, cli, srv0, 64); o != (rdma.FaultOutcome{}) {
		t.Fatalf("quiesced injector still injecting: %+v", o)
	}
}

// smallSchedule shrinks a scenario for unit-test runtime.
func smallSchedule(t *testing.T, name string, seed uint64) Schedule {
	t.Helper()
	s := testutil.Must1(ForScenario(name, seed))
	s.Clients = 3
	s.Ops = 80
	s.Keys = 12
	third := int64(s.Clients*s.Ops) / 3
	for i := range s.Events {
		// Rescale event trigger points to the shrunken op count.
		switch {
		case i == 0:
			s.Events[i].AtOp = third / 2
		default:
			s.Events[i].AtOp = third/2 + int64(i)*third/2
		}
	}
	return s
}

func runScenario(t *testing.T, name string, seed uint64) *Result {
	t.Helper()
	s := smallSchedule(t, name, seed)
	res, err := Run(Options{Schedule: s, Logf: t.Logf})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take seconds")
	}
	for _, name := range Scenarios() {
		name := name
		t.Run(name, func(t *testing.T) {
			// Not parallel: Run's teardown asserts the process-wide spawn
			// registry and goroutine count are back to baseline, which
			// only holds with one cluster alive at a time.
			res := runScenario(t, name, 7)
			if res.Violation != nil {
				t.Fatalf("history violation:\n%s\nreplay: %s", res.Violation, res.Schedule)
			}
			if len(res.LostKeys) > 0 {
				t.Fatalf("acked writes lost: %v\nreplay: %s", res.LostKeys, res.Schedule)
			}
			if res.Ops != int64(res.Schedule.Clients*res.Schedule.Ops) {
				t.Fatalf("ops = %d", res.Ops)
			}
			wantKills := 0
			for _, ev := range res.Schedule.Events {
				if ev.Action == ActKill {
					wantKills++
				}
			}
			if len(res.RecoverNs) != wantKills {
				t.Fatalf("recover samples = %d, want %d", len(res.RecoverNs), wantKills)
			}
			for _, ns := range res.RecoverNs {
				if ns < 0 {
					t.Fatal("a killed shard never promoted")
				}
			}
			if int(res.Promotions) < wantKills {
				t.Fatalf("promotions = %d, want >= %d", res.Promotions, wantKills)
			}
		})
	}
}

func TestSeededBugCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take seconds")
	}
	// Clean fabric (no faults, no events): the ONLY anomaly is the seeded
	// corruption, and the oracle must find it.
	s := Schedule{Seed: 3, Name: "seeded-bug", Clients: 2, Ops: 60, Keys: 8}
	res, err := Run(Options{Schedule: s, SeededBug: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("seeded corruption not detected")
	}
	if res.Violation == nil {
		t.Fatal("corruption must surface as a linearizability violation")
	}
	if len(res.Violation.Ops) == 0 {
		t.Fatal("violation carries no offending history")
	}
	if len(res.LostKeys) == 0 {
		t.Fatal("corrupted acked key not reported as lost")
	}
	// And the same schedule without the bug is clean.
	clean, err := Run(Options{Schedule: s, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed() {
		t.Fatalf("clean run failed: violation=%v lost=%v", clean.Violation, clean.LostKeys)
	}
}

func TestReplayFromParsedLine(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos runs take seconds")
	}
	orig := smallSchedule(t, "crash-primary", 11)
	parsed, err := Parse(orig.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, parsed) {
		t.Fatalf("replay schedule differs:\n  %+v\n  %+v", orig, parsed)
	}
	res, err := Run(Options{Schedule: parsed, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("replayed run failed: %v %v", res.Violation, res.LostKeys)
	}
}
