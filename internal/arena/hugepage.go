package arena

// Huge-page geometry. A shard's big regions (item bytes, word area, hash
// table) are touched at random, so on 4 KB pages nearly every access is
// also a TLB miss. Real RDMA stores register huge-page memory so that
// neither the host MMU nor the NIC's translation table walks 4 KB pages;
// AdviseHugePages asks the kernel for the same on the aligned interior of
// a region.
const (
	hugePageBytes = 2 << 20
	// hugeMinBytes is the smallest region worth advising: below it, the
	// aligned interior may be empty or a single page.
	hugeMinBytes = 2 * hugePageBytes
)

// hugeInterior returns the byte offsets [lo, hi) of the hugePageBytes-aligned
// interior of the n-byte region starting at address base, or lo == hi when
// the region is below hugeMinBytes.
func hugeInterior(base uintptr, n int) (lo, hi int) {
	if n < hugeMinBytes {
		return 0, 0
	}
	const mask = hugePageBytes - 1
	start := (base + mask) &^ mask
	end := (base + uintptr(n)) &^ mask
	return int(start - base), int(end - base)
}
