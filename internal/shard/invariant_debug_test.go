//go:build hydradebug

package shard

import (
	"testing"

	"hydradb/internal/kv"
	"hydradb/internal/message"
	"hydradb/internal/rdma"
	"hydradb/internal/timing"
)

// TestShardExclusivityViolationPanics drives a request through shard.handle
// from the test goroutine while the shard's own event loop owns the store —
// the exact §4.1.1 violation the goroutine-ownership sanitizer exists to
// catch — and observes the panic.
func TestShardExclusivityViolationPanics(t *testing.T) {
	clk := timing.NewManualClock(1e9)
	fabric := rdma.NewFabric(rdma.Config{})
	nic := fabric.NewNIC("server")
	s := New(Config{ID: 1, NIC: nic, Store: kv.Config{Clock: clk, ArenaBytes: 1 << 20, MaxItems: 1 << 10}})

	s.Start()
	defer s.Stop()
	// The loop acquires ownership in PollOnce, before it drains a request,
	// so once it has answered one the owner is recorded and any foreign
	// handle call must trap.
	exchange(t, s.Connect(nic, false), message.Request{Op: message.OpGet, Seq: 1, Key: []byte("k")})

	req := message.Request{Op: message.OpPut, Key: []byte("k"), Val: []byte("v")}
	body := make([]byte, req.EncodedSize())
	req.EncodeTo(body)
	respBuf := make([]byte, 1<<10)

	defer func() {
		if r := recover(); r == nil {
			t.Fatal("foreign-goroutine shard.handle did not panic under hydradebug")
		}
	}()
	s.handle(body, respBuf, s.epoch.Load())
}
