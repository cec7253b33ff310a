package simcluster

// The fleet simulator's statistical read-path classes and their calibrated
// service times. The two measured means come from the single-key live-mode
// microbenchmarks the root package once carried (bench_test.go, since
// retired; one core): BenchmarkLiveGet_RDMARead ran a one-sided GET through
// a cached pointer at 184.6 ns/op and BenchmarkLiveGet_MessagePath a
// message-path GET at 706.2 ns/op. The composite classes add them up. The
// sums are float64 additions of the two variables, not literals, because
// the golden scenario hashes pin the rounded results bit for bit.

// LatencyClass names one statistical read-path class.
type LatencyClass string

// The four modeled classes: pointer-cache hit / stale / message-path /
// WrongShard bounce.
const (
	ClassHit     LatencyClass = "hit"     // one-sided RDMA Read through a valid cached pointer
	ClassStale   LatencyClass = "stale"   // invalid hit: one-sided read, guardian miss, message fallback
	ClassMessage LatencyClass = "message" // RDMA-Write message round trip through the shard thread
	ClassBounce  LatencyClass = "bounce"  // WrongShard: message to the old owner, reroute, retry
)

var (
	hitNs     = 184.6 // BenchmarkLiveGet_RDMARead, ns/op
	messageNs = 706.2 // BenchmarkLiveGet_MessagePath, ns/op
)

// calibration is each class's service-time model, in class-index order.
// Cache hits are near-deterministic (fixed); the message-path classes are
// right-skewed by queueing (lognormal).
var calibration = [numClasses]struct {
	class  LatencyClass
	meanNs float64
	dist   DistKind
	sigma  float64
}{
	idxHit:     {ClassHit, hitNs, DistFixed, 0},
	idxStale:   {ClassStale, hitNs + messageNs, DistLognormal, 0.25},
	idxMessage: {ClassMessage, messageNs, DistLognormal, 0.25},
	idxBounce:  {ClassBounce, messageNs + messageNs, DistLognormal, 0.25},
}
