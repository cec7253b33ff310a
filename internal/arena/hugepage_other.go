//go:build !linux

package arena

// AdviseHugePages is a no-op outside Linux: the region keeps the host's
// default pages.
func AdviseHugePages[T any](s []T) bool { return false }
