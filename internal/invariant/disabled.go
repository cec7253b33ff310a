//go:build !hydradebug

package invariant

// Enabled reports whether the sanitizers are armed (-tags hydradebug).
const Enabled = false

// Owner is a no-op placeholder; see enabled.go for the armed version.
type Owner struct{}

// Acquire is a no-op without -tags hydradebug.
func (*Owner) Acquire(string) {}

// Release is a no-op without -tags hydradebug.
func (*Owner) Release() {}

// Assert is a no-op without -tags hydradebug.
func (*Owner) Assert(string) {}

// AllocTracker is a no-op placeholder; see enabled.go for the armed version.
type AllocTracker struct{}

// OnAlloc is a no-op without -tags hydradebug.
func (*AllocTracker) OnAlloc(uint32, int) {}

// OnFree is a no-op without -tags hydradebug.
func (*AllocTracker) OnFree(uint32, int) {}

// CheckLive is a no-op without -tags hydradebug.
func (*AllocTracker) CheckLive(uint32, int) {}
