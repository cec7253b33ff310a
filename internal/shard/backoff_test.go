package shard

import (
	"testing"
	"time"

	"hydradb/internal/message"
)

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
	// with 64 yields and naps from 100 ns doubling to 1 ms, ~150 ms of
	// idleness is dozens of capped naps.
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
