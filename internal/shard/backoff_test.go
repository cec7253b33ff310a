package shard

import (
	"testing"
	"time"

	"hydradb/internal/message"
)

// TestIdleBackoffStateMachine pins the backoff shape: spin phase for `spins`
// rounds, then naps doubling from napNs to the napMaxNs cap, and full reset
// on progress.
func TestIdleBackoffStateMachine(t *testing.T) {
	b := idleBackoff{spins: 3, napNs: 100, napMaxNs: 800}
	for i := 0; i < 3; i++ {
		if b.idle() {
			t.Fatalf("round %d napped during the spin phase", i)
		}
	}
	wantNaps := []int64{100, 200, 400, 800, 800}
	for i, want := range wantNaps {
		if !b.idle() {
			t.Fatalf("nap round %d did not nap", i)
		}
		if b.nap != want {
			t.Fatalf("nap round %d: nap=%d, want %d", i, b.nap, want)
		}
	}
	b.reset()
	if b.rounds != 0 || b.nap != 0 {
		t.Fatalf("reset did not return to spin phase: %+v", b)
	}
	if b.idle() {
		t.Fatal("first round after reset napped")
	}
}

// TestFreshRequestAfterLongIdle pins that a request arriving after the shard
// has idled all the way to the nap cap is still served promptly — the
// backoff must cap, not grow unboundedly. The bound is deliberately loose
// (scheduler noise) but far below what an uncapped exponential would reach.
func TestFreshRequestAfterLongIdle(t *testing.T) {
	sh, f, _ := testShard(t)
	go sh.Run()
	defer sh.Stop()
	ep := sh.Connect(f.NewNIC("client"), false)

	// Warm once, then leave the shard idle long enough to reach the cap:
	// with idleSpins=64 and napNs=100 doubling to 1 ms, ~150 ms of idleness
	// is dozens of capped naps.
	exchange(t, ep, message.Request{Op: message.OpPut, Seq: 1, Key: []byte("idle"), Val: []byte("v")})
	time.Sleep(150 * time.Millisecond)

	start := time.Now()
	get := exchange(t, ep, message.Request{Op: message.OpGet, Seq: 2, Key: []byte("idle")})
	elapsed := time.Since(start)
	if get.Status != message.StatusOK {
		t.Fatalf("get after idle: %+v", get)
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("fresh request after long idle took %v, want <= 250ms (nap cap is 1ms)", elapsed)
	}
}
