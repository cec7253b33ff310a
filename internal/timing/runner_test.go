package timing

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestRunnerBacksOffAndStops drives an idle loop for 50 ms: it must yield,
// then nap (running the on-nap hook), rather than spin; Stop must join it,
// so no step runs after Stop returns; and a second Stop is a no-op.
func TestRunnerBacksOffAndStops(t *testing.T) {
	var steps, naps atomic.Int64
	r := NewRunner("test")
	r.Go(YieldFirst, func() bool { steps.Add(1); return false }, func() { naps.Add(1) })
	time.Sleep(50 * time.Millisecond)
	r.Stop()
	n := steps.Load()
	// 64 yields, then naps doubling from 100 ns to the 1 ms cap: about 130
	// rounds in 50 ms. A loop that never backs off makes millions.
	if n > 5000 {
		t.Fatalf("%d steps in 50 ms: the idle loop did not back off", n)
	}
	if naps.Load() == 0 {
		t.Fatal("the on-nap hook never ran")
	}
	time.Sleep(5 * time.Millisecond)
	if got := steps.Load(); got != n {
		t.Fatalf("%d steps ran after Stop returned", got-n)
	}
	r.Stop()
}

// TestRunnerStopWithoutStart: stopping a runner that never started returns
// at once, and a loop started after Stop exits at once.
func TestRunnerStopWithoutStart(t *testing.T) {
	r := NewRunner("test")
	r.Stop()
	var steps atomic.Int64
	r.Go(YieldFirst, func() bool { steps.Add(1); return true }, nil)
	r.Stop()
	if steps.Load() != 0 {
		t.Fatalf("a loop started after Stop ran %d steps", steps.Load())
	}
}
