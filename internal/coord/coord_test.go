package coord

import (
	"fmt"
	"testing"
	"time"

	"hydradb/internal/testutil"
	"hydradb/internal/timing"
)

func newTestServer() (*Server, *timing.ManualClock) {
	clk := timing.NewManualClock(0)
	return NewServer(clk, 2e9), clk
}

// exists probes path through Get, failing the test on any error other than
// a missing node.
func exists(t *testing.T, s *Session, path string) bool {
	t.Helper()
	switch _, err := s.Get(path); err {
	case nil:
		return true
	case ErrNoNode:
		return false
	default:
		t.Fatalf("get %s: %v", path, err)
		return false
	}
}

func TestCreateGetDelete(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()

	if _, err := s.Create("/a", []byte("x"), FlagPersistent); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("/a", nil, FlagPersistent); err != ErrNodeExists {
		t.Fatalf("duplicate create: %v", err)
	}
	if _, err := s.Create("/missing/child", nil, FlagPersistent); err != ErrNoNode {
		t.Fatalf("create under missing parent: %v", err)
	}
	data, err := s.Get("/a")
	if err != nil || string(data) != "x" {
		t.Fatalf("get: %q %v", data, err)
	}
	if err := s.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if exists(t, s, "/a") {
		t.Fatal("node survives delete")
	}
}

func TestPathValidation(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()
	for _, bad := range []string{"", "a", "/a/", "//a", "/a//b"} {
		if _, err := s.Create(bad, nil, FlagPersistent); err != ErrBadPath {
			t.Errorf("path %q: %v", bad, err)
		}
	}
}

func TestDeleteNonEmpty(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()
	testutil.Must1(s.Create("/p", nil, FlagPersistent))
	testutil.Must1(s.Create("/p/c", nil, FlagPersistent))
	if err := s.Delete("/p"); err != ErrNotEmpty {
		t.Fatalf("delete of non-empty: %v", err)
	}
}

func TestChildrenSorted(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()
	testutil.Must1(s.Create("/p", nil, FlagPersistent))
	for _, c := range []string{"b", "a", "c"} {
		testutil.Must1(s.Create("/p/"+c, nil, FlagPersistent))
	}
	kids, err := s.Children("/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 3 || kids[0] != "a" || kids[2] != "c" {
		t.Fatalf("children: %v", kids)
	}
}

func TestSequentialNodes(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()
	testutil.Must1(s.Create("/q", nil, FlagPersistent))
	p1 := testutil.Must1(s.Create("/q/n-", nil, FlagSequential))
	p2 := testutil.Must1(s.Create("/q/n-", nil, FlagSequential))
	if p1 != "/q/n-0000000000" || p2 != "/q/n-0000000001" {
		t.Fatalf("sequential paths: %s %s", p1, p2)
	}
}

func TestEphemeralLifecycle(t *testing.T) {
	srv, clk := newTestServer()
	s1 := srv.NewSession()
	s2 := srv.NewSession()
	testutil.Must1(s1.Create("/live", nil, FlagPersistent))
	testutil.Must1(s1.Create("/live/a", nil, FlagEphemeral))

	// Heartbeats keep it alive.
	for i := 0; i < 5; i++ {
		clk.Advance(1e9)
		testutil.Must(s1.Ping())
		testutil.Must(s2.Ping())
		srv.Tick()
	}
	if !exists(t, s2, "/live/a") {
		t.Fatal("ephemeral died despite heartbeats")
	}
	// Stop pinging s1: after timeout the ephemeral disappears.
	clk.Advance(3e9)
	testutil.Must(s2.Ping()) // cannot ping s1: would revive it; ping before tick
	if n := srv.Tick(); n != 1 {
		t.Fatalf("expired %d sessions, want 1", n)
	}
	if exists(t, s2, "/live/a") {
		t.Fatal("ephemeral survived session expiry")
	}
	// Expired session is unusable.
	if err := s1.Ping(); err != ErrSessionExpired {
		t.Fatalf("ping on expired session: %v", err)
	}
	if _, err := s1.Get("/live"); err != ErrSessionExpired {
		t.Fatalf("get on expired session: %v", err)
	}
}

func TestExplicitClose(t *testing.T) {
	srv, _ := newTestServer()
	s1 := srv.NewSession()
	s2 := srv.NewSession()
	testutil.Must1(s1.Create("/x", nil, FlagEphemeral))
	s1.Close()
	if exists(t, s2, "/x") {
		t.Fatal("ephemeral survived close")
	}
	if srv.SessionAlive(s1.ID()) {
		t.Fatal("closed session alive")
	}
}

func TestWatchEvents(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()
	w := srv.NewSession()
	testutil.Must1(s.Create("/w", nil, FlagPersistent))
	events, cancel, err := w.Watch("/w")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	testutil.Must1(s.Create("/w/c", []byte("v"), FlagPersistent))
	expectEvent(t, events, EventCreated, "/w/c")
	expectEvent(t, events, EventChildrenChanged, "/w")

	testutil.Must(s.Delete("/w/c"))
	expectEvent(t, events, EventDeleted, "/w/c")
	expectEvent(t, events, EventChildrenChanged, "/w")
}

func expectEvent(t *testing.T, ch <-chan Event, typ EventType, path string) {
	t.Helper()
	select {
	case ev := <-ch:
		if ev.Type != typ || ev.Path != path {
			t.Fatalf("event %v %q, want %v %q", ev.Type, ev.Path, typ, path)
		}
	default:
		t.Fatalf("no event; wanted %v %q", typ, path)
	}
}

func TestWatchEphemeralExpiry(t *testing.T) {
	srv, clk := newTestServer()
	owner := srv.NewSession()
	watcher := srv.NewSession()
	testutil.Must1(owner.Create("/shards", nil, FlagPersistent))
	testutil.Must1(owner.Create("/shards/s1", nil, FlagEphemeral))
	events, cancel := testutil.Must2(watcher.Watch("/shards"))
	defer cancel()

	clk.Advance(5e9)
	testutil.Must(watcher.Ping())
	srv.Tick()
	// Watcher must see the ephemeral vanish — the SWAT failure signal.
	var sawDelete bool
	for {
		select {
		case ev := <-events:
			if ev.Type == EventDeleted && ev.Path == "/shards/s1" {
				sawDelete = true
			}
			continue
		default:
		}
		break
	}
	if !sawDelete {
		t.Fatal("watcher missed ephemeral expiry")
	}
}

func TestEnsurePath(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()
	if err := s.EnsurePath("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if !exists(t, s, "/a/b/c") {
		t.Fatal("ensure path did not create")
	}
	// Idempotent.
	if err := s.EnsurePath("/a/b/c"); err != nil {
		t.Fatal(err)
	}
}

func TestElection(t *testing.T) {
	srv, clk := newTestServer()
	sessions := make([]*Session, 3)
	elections := make([]*Election, 3)
	for i := range sessions {
		sessions[i] = srv.NewSession()
		var err error
		elections[i], err = NewElection(sessions[i], "/swat/election", fmt.Sprintf("swat-%d", i))
		if err != nil {
			t.Fatal(err)
		}
	}
	leaders := 0
	leaderIdx := -1
	for i, e := range elections {
		if ok := testutil.Must1(e.IsLeader()); ok {
			leaders++
			leaderIdx = i
		}
	}
	if leaders != 1 || leaderIdx != 0 {
		t.Fatalf("leaders=%d idx=%d", leaders, leaderIdx)
	}
	if name := testutil.Must1(elections[1].Leader()); name != "swat-0" {
		t.Fatalf("leader name %q", name)
	}

	// Leader dies: session expiry removes its candidate node; next lowest
	// takes over.
	clk.Advance(5e9)
	testutil.Must(sessions[1].Ping())
	testutil.Must(sessions[2].Ping())
	srv.Tick()
	if alive := srv.SessionAlive(sessions[0].ID()); alive {
		t.Fatal("leader session still alive")
	}
	if ok := testutil.Must1(elections[1].IsLeader()); !ok {
		t.Fatal("successor did not take leadership")
	}
	if ok := testutil.Must1(elections[2].IsLeader()); ok {
		t.Fatal("wrong successor")
	}
	// The successor received membership events to re-check on.
	select {
	case <-elections[1].Events():
	default:
		t.Fatal("no election event delivered")
	}

	// Explicit resignation promotes the last candidate.
	elections[1].Resign()
	if ok := testutil.Must1(elections[2].IsLeader()); !ok {
		t.Fatal("resignation did not promote")
	}
}

func TestWatchOverflowKeepsNewest(t *testing.T) {
	srv, _ := newTestServer()
	s := srv.NewSession()
	testutil.Must1(s.Create("/burst", nil, FlagPersistent))
	events, cancel := testutil.Must2(s.Watch("/burst"))
	defer cancel()
	// Generate far more events than the buffer holds: each create and each
	// delete of a child fires two.
	for i := 0; i < 150; i++ {
		testutil.Must1(s.Create("/burst/c", nil, FlagPersistent))
		testutil.Must(s.Delete("/burst/c"))
	}
	// Drain: the channel must contain events and not have blocked mutations.
	n := 0
	for {
		select {
		case <-events:
			n++
			continue
		default:
		}
		break
	}
	if n == 0 || n > 128 {
		t.Fatalf("drained %d events", n)
	}
}

func TestSessionIsolation(t *testing.T) {
	srv, clk := newTestServer()
	a := srv.NewSession()
	b := srv.NewSession()
	testutil.Must1(a.Create("/pa", nil, FlagEphemeral))
	testutil.Must1(b.Create("/pb", nil, FlagEphemeral))
	clk.Advance(3e9)
	testutil.Must(b.Ping())
	srv.Tick()
	if exists(t, b, "/pa") {
		t.Fatal("expired session's ephemeral survived")
	}
	if !exists(t, b, "/pb") {
		t.Fatal("live session's ephemeral deleted")
	}
}

// TestDeadSessionCallsReleaseLock: a call on a closed or expired session
// returns the session error without keeping the server lock, so another
// session's call still completes.
func TestDeadSessionCallsReleaseLock(t *testing.T) {
	srv, clk := newTestServer()
	live := srv.NewSession()
	testutil.Must1(live.Create("/p", nil, FlagPersistent))
	closed := srv.NewSession()
	closed.Close()
	expired := srv.NewSession()
	clk.Advance(3e9)
	testutil.Must(live.Ping())
	srv.Tick()
	calls := map[string]func(*Session) error{
		"Children": func(s *Session) error { _, err := s.Children("/p"); return err },
		"Create":   func(s *Session) error { _, err := s.Create("/p/c", nil, FlagEphemeral); return err },
	}
	for name, call := range calls {
		for _, dead := range []*Session{closed, expired} {
			if err := call(dead); err != ErrSessionExpired {
				t.Fatalf("%s on a dead session: %v", name, err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := live.Children("/p")
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("children on the live session: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("a live session's Children blocked after a failed %s on a dead one", name)
			}
		}
	}
}
