package message

import (
	"errors"

	"hydradb/internal/rdma"
)

// Errors returned by mailbox operations.
var (
	// ErrTooLarge reports a body exceeding the slot capacity.
	ErrTooLarge = errors.New("message: body exceeds mailbox slot capacity")
	// ErrRingFull reports a loopback write into a slot the owner has not
	// consumed yet (remote writers cannot observe this; they must respect
	// the window protocol instead).
	ErrRingFull = errors.New("message: mailbox ring full")
)

// Mailbox is one direction of a Shard↔Client connection: a ring of
// indicator-encapsulated message slots in the owner's memory region that the
// remote side fills with single RDMA Writes and the owner detects by
// sustained polling (§4.2.1, Fig. 7).
//
// Each slot follows the paper's format exactly: the head indicator both
// announces arrival and carries the message size; the tail indicator (the
// "last word of the message") confirms the body landed — RDMA Write's
// in-order delivery makes head-after-tail publication sufficient. After
// processing, the owner zeroes the indicators ("the shard zeros out the
// request buffer") which doubles as writer-side flow control.
//
// A depth-1 ring reproduces the paper's single-slot protocol bit for bit:
// exactly one message in flight, exclusivity guaranteed by request/response
// alternation. Deeper rings generalize it into a pipeline: the writer fills
// slots in order and may keep up to depth messages outstanding, the owner
// polls and consumes slots strictly in order, and the credit rule "one new
// request per consumed response" guarantees neither side ever overwrites an
// unconsumed slot (see DESIGN.md, "Slot rings and the pipeline window").
//
// The same Mailbox value is shared by both ends of a connection in-process:
// the owner advances the read cursor, the writer the write cursor, and the
// indicator words carry all cross-goroutine synchronization. The cursors are
// padded onto private cache lines: each is written by exactly one goroutine
// on every message, and sharing a line would put coherence traffic on the
// per-message hot path (the in-process analogue of §4.2.1's single-writer
// cursor split).
type Mailbox struct {
	mr       *rdma.MemoryRegion
	dataOff  int // byte base, validated by NewRing
	slotCap  int // slot capacity, validated by NewRing
	depth    int
	wordBase int       // word base, validated by NewRing
	_        [3]uint64 // pad: the read-only config above fills its own line

	// owner-side read cursor (slot index), in [0, depth)
	rd int
	_  [7]uint64 // pad: rd gets a private cache line

	// writer-side write cursor (slot index), in [0, depth)
	wr int
	_  [7]uint64 // pad: keep wr's line private even in Mailbox arrays
}

// Indicator word format: one present bit, a 31-bit sequence number, and a
// 32-bit body size, packed most-significant first so a zero word means
// "slot free". Each ring slot owns an adjacent (head, tail) indicator pair.
const (
	presentBits           = 1
	seqBits               = 31
	sizeBits              = 32
	seqMask               = (uint64(1) << seqBits) - 1
	sizeMask              = (uint64(1) << sizeBits) - 1
	indicatorWordsPerSlot = 2
)

const presentBit = uint64(1) << (seqBits + sizeBits)

func makeIndicator(seq uint32, size int) uint64 {
	return presentBit | (uint64(seq)&seqMask)<<sizeBits | uint64(uint32(size))
}

func splitIndicator(w uint64) (seq uint32, size int, present bool) {
	return uint32((w >> sizeBits) & seqMask), int(uint32(w & sizeMask)), w&presentBit != 0
}

// NewMailbox creates a single-slot mailbox over [dataOff, dataOff+dataCap)
// of mr's byte area, using words headIdx and tailIdx of its word area. It is
// the depth-1 ring; the indicator words must be adjacent, as slots store
// (head, tail) pairs.
func NewMailbox(mr *rdma.MemoryRegion, dataOff, dataCap, headIdx, tailIdx int) *Mailbox {
	if tailIdx != headIdx+1 {
		panic("message: mailbox indicator words must be adjacent (head, tail)")
	}
	return NewRing(mr, dataOff, dataCap, 1, headIdx)
}

// NewRing creates a mailbox ring of depth slots of slotCap bytes each over
// [dataOff, dataOff+depth*slotCap) of mr's byte area. Slot i uses words
// wordBase+2i (head) and wordBase+2i+1 (tail) of the word area.
func NewRing(mr *rdma.MemoryRegion, dataOff, slotCap, depth, wordBase int) *Mailbox {
	if mr.Words() == nil {
		panic("message: mailbox region needs a word area")
	}
	if depth < 1 || slotCap <= 0 {
		panic("message: mailbox ring needs depth >= 1 and positive slot capacity")
	}
	if wordBase < 0 || wordBase+indicatorWordsPerSlot*depth > mr.Words().Len() {
		panic("message: mailbox ring exceeds word area")
	}
	if dataOff < 0 || dataOff+depth*slotCap > len(mr.Data()) {
		panic("message: mailbox ring exceeds byte area")
	}
	return &Mailbox{mr: mr, dataOff: dataOff, slotCap: slotCap, depth: depth, wordBase: wordBase}
}

// Capacity reports the largest body one slot can carry.
func (m *Mailbox) Capacity() int { return m.slotCap }

// Depth reports the number of slots — the maximum messages in flight.
func (m *Mailbox) Depth() int { return m.depth }

// Poll checks for a delivered message in the slot at the read cursor (owner
// side). Slots are consumed strictly in ring order, so a message in a later
// slot stays invisible until every earlier slot is consumed. The returned
// body aliases the mailbox buffer and is valid until Consume.
func (m *Mailbox) Poll() (body []byte, seq uint32, ok bool) {
	words := m.mr.Words()
	headIdx := m.wordBase + indicatorWordsPerSlot*m.rd
	head := words.Load(headIdx)
	if head == 0 {
		return nil, 0, false
	}
	seq, size, present := splitIndicator(head)
	if !present || size < 0 || size > m.slotCap {
		return nil, 0, false
	}
	// The paper polls the last word after the size-bearing first word; with
	// in-order RDMA Write, tail==head means the body between them landed.
	if words.Load(headIdx+1) != head {
		return nil, 0, false
	}
	off := m.dataOff + m.rd*m.slotCap
	return m.mr.Data()[off : off+size], seq, true
}

// Consume clears the indicators of the slot at the read cursor, releasing it
// to the writer, and advances the cursor to the next slot.
// hydralint:unpublishes clearing the head indicator retires the slot
func (m *Mailbox) Consume() {
	words := m.mr.Words()
	headIdx := m.wordBase + indicatorWordsPerSlot*m.rd
	words.Store(headIdx+1, 0)
	words.Store(headIdx, 0)
	m.rd++
	if m.rd == m.depth {
		m.rd = 0
	}
}

// Busy reports whether a message is pending in the slot at the read cursor
// (owner side).
func (m *Mailbox) Busy() bool { return m.mr.Words().Load(m.wordBase+indicatorWordsPerSlot*m.rd) != 0 }

// WriteVia delivers body into the slot at the write cursor through qp as one
// RDMA Write (writer side) and advances the cursor. The caller must respect
// the window protocol — at most depth messages outstanding, one new write
// per consumed slot; writing into a busy slot corrupts it, exactly as on
// real hardware where the writer cannot see the remote indicators.
func (m *Mailbox) WriteVia(qp *rdma.QP, body []byte, seq uint32) error {
	if len(body) > m.slotCap {
		return ErrTooLarge
	}
	headIdx := m.wordBase + indicatorWordsPerSlot*m.wr
	off := m.dataOff + m.wr*m.slotCap
	ind := makeIndicator(seq, len(body))
	if err := qp.WriteIndicated(m.mr, off, body, headIdx+1, headIdx, ind); err != nil {
		return err
	}
	m.wr++
	if m.wr == m.depth {
		m.wr = 0
	}
	return nil
}

// WriteLocal delivers body written by the region owner itself (used by
// loopback connections when client and shard share a machine). Unlike a
// remote writer, the owner can see the indicators, so a write into an
// unconsumed slot is rejected with ErrRingFull instead of corrupting it.
// hydralint:publishes
func (m *Mailbox) WriteLocal(body []byte, seq uint32) error {
	if len(body) > m.slotCap {
		return ErrTooLarge
	}
	words := m.mr.Words()
	headIdx := m.wordBase + indicatorWordsPerSlot*m.wr
	if words.Load(headIdx) != 0 {
		return ErrRingFull
	}
	off := m.dataOff + m.wr*m.slotCap
	copy(m.mr.Data()[off:], body)
	ind := makeIndicator(seq, len(body))
	words.Store(headIdx+1, ind)
	words.Store(headIdx, ind)
	m.wr++
	if m.wr == m.depth {
		m.wr = 0
	}
	return nil
}
