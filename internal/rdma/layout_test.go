package rdma

import (
	"reflect"
	"testing"
)

// TestQPCounterLineGolden pins the QP layout: the verb counters every
// initiated verb writes must fill a 64-byte cache line of their own. Any
// field beside them that a verb reads, above all the closed flag the peer end
// loads on every verb, would bounce that line between the cores driving the
// two ends. Every other field is swept, so a later insertion cannot silently
// re-share the line. Offsets and sizes come from reflect, the same numbers as
// unsafe.Offsetof/Sizeof, because the atomic-word lint forbids handing a value
// holding atomics to unsafe.
func TestQPCounterLineGolden(t *testing.T) {
	const line = 64
	qp := reflect.TypeOf((*QP)(nil)).Elem()
	if got := qp.Size(); got != 192 {
		t.Fatalf("QP is %d bytes, want 192 (three full cache lines)", got)
	}
	ops, _ := qp.FieldByName("ops")
	bytes, _ := qp.FieldByName("bytes")
	if ops.Offset != 0 || bytes.Offset != 8 {
		t.Fatalf("counter offsets ops=%d bytes=%d, want 0 and 8 (first line)", ops.Offset, bytes.Offset)
	}
	for i := 0; i < qp.NumField(); i++ {
		f := qp.Field(i)
		if f.Name == "ops" || f.Name == "bytes" || f.Name == "_" {
			continue
		}
		if f.Offset/line == ops.Offset/line {
			t.Errorf("QP.%s (offset %d) shares the counters' cache line", f.Name, f.Offset)
		}
	}

	// Both ends live in one link allocation. Its size must stay a whole
	// number of lines (a 64-aligned size class) and the shared closed flag
	// must sit on neither end's counter line.
	l := reflect.TypeOf((*link)(nil)).Elem()
	if got := l.Size(); got != 448 {
		t.Fatalf("link is %d bytes, want 448 (seven full cache lines)", got)
	}
	ends, _ := l.FieldByName("ends")
	closed, _ := l.FieldByName("closed")
	for i := 0; i < ends.Type.Len(); i++ {
		end := ends.Offset + uintptr(i)*qp.Size()
		if end%line != 0 {
			t.Fatalf("link.ends[%d] at offset %d is not line-aligned", i, end)
		}
		if closed.Offset/line == (end+ops.Offset)/line {
			t.Fatalf("link.closed (offset %d) shares ends[%d]'s counter line", closed.Offset, i)
		}
	}
}
