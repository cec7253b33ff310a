package main

import (
	"hydradb/internal/ycsb"
)

// stream is the pre-generated request sequence of one run. It depends on the
// workload's constants and the seed and on nothing else; hash makes a change
// to the generator visible as a change to the benchmark.
type stream struct {
	gen  *ycsb.Workload // key rendering only; its request slice is dropped
	reqs []uint32       // keyIdx<<1 | 1 for UPDATE, keyIdx<<1 for GET
	hash uint64
}

// closedLoopRequests is the stream length of a closed-loop run; clients walk
// it cyclically from evenly spaced offsets. Two million requests touch ~86%
// of read_msg's million records per cycle and pack into 8 MB.
const closedLoopRequests = 1 << 21

func newStream(w *workload, seed int64, n int) (*stream, error) {
	gen, err := ycsb.Generate(ycsb.StandardSpec(w.records, n, w.readPct, w.dist, seed))
	if err != nil {
		return nil, err
	}
	s := &stream{gen: gen, reqs: make([]uint32, n), hash: 0xcbf29ce484222325}
	for i, r := range gen.Requests {
		p := uint32(r.KeyIdx) << 1
		if r.Op != ycsb.OpRead {
			p |= 1
		}
		s.reqs[i] = p
		s.hash = (s.hash ^ uint64(p)) * 0x100000001b3
	}
	gen.Requests = nil
	return s, nil
}

func (s *stream) key(dst []byte, keyIdx int64) []byte { return s.gen.KeyInto(dst, keyIdx) }
