//go:build linux

package arena

import (
	"syscall"
	"unsafe"
)

// AdviseHugePages asks the kernel to back the 2 MB-aligned interior of s
// with transparent huge pages (madvise MADV_HUGEPAGE) and reports whether
// it accepted. The advice is best effort: it is skipped for regions below
// 4 MB, and a kernel without transparent huge pages rejects it, leaving the
// region on 4 KB pages with the same contents and semantics.
func AdviseHugePages[T any](s []T) bool {
	if len(s) == 0 {
		return false
	}
	var zero T
	// A byte view of the same allocation: the pointer stays a pointer into
	// s, and the address is only used for the alignment arithmetic.
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
	lo, hi := hugeInterior(uintptr(unsafe.Pointer(unsafe.SliceData(b))), len(b))
	if lo == hi {
		return false
	}
	return syscall.Madvise(b[lo:hi], syscall.MADV_HUGEPAGE) == nil
}
