// Package replication implements HydraDB's RDMA Logging Replication (§5.2).
//
// Each secondary shard exposes a large memory chunk to its primary; the
// primary replicates every write request into it using one-sided RDMA Writes
// in a log-structured fashion (a ring of fixed-capacity record slots, each
// published by a per-slot indicator word). Because the secondary's memory is
// Single-Writer Zero-Reader, the conventional request/acknowledge exchange
// is relaxed: records carry a monotonically increasing sequence number, the
// primary solicits an acknowledgement only every AckEvery records (or when
// its window fills), and the secondary acknowledges by RDMA-writing its
// applied sequence number into the primary's ack word.
//
// Failure handling follows the paper: when the secondary fails to process a
// record it stops advancing its acknowledgement, discards subsequent
// records, and loops until it observes a record flagged as an ack request —
// then it reports the first failed sequence number, and the primary rolls
// back and re-sends every record from that point.
package replication

import (
	"encoding/binary"
	"errors"

	"hydradb/internal/message"
)

// Record is one replicated mutation.
type Record struct {
	Op  message.Op // OpPut or OpDelete
	Key []byte
	Val []byte
}

const recHeader = 1 + 1 + 2 + 4 // op, pad, keyLen, valLen

// ErrRecordTooLarge reports a record exceeding the slot capacity.
var ErrRecordTooLarge = errors.New("replication: record exceeds slot size")

// ErrMalformedRecord reports an undecodable slot.
var ErrMalformedRecord = errors.New("replication: malformed record")

// EncodedSize reports the wire size of the record.
func (r *Record) EncodedSize() int { return recHeader + len(r.Key) + len(r.Val) }

// EncodeTo writes the record into buf.
func (r *Record) EncodeTo(buf []byte) int {
	buf[0] = byte(r.Op)
	buf[1] = 0
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(r.Val)))
	n := copy(buf[recHeader:], r.Key)
	copy(buf[recHeader+n:], r.Val)
	return r.EncodedSize()
}

// DecodeRecord parses buf; Key/Val alias buf.
func DecodeRecord(buf []byte) (Record, error) {
	if len(buf) < recHeader {
		return Record{}, ErrMalformedRecord
	}
	r := Record{Op: message.Op(buf[0])}
	keyLen := int(binary.LittleEndian.Uint16(buf[2:4]))
	valLen := int(binary.LittleEndian.Uint32(buf[4:8]))
	if keyLen == 0 || recHeader+keyLen+valLen > len(buf) {
		return Record{}, ErrMalformedRecord
	}
	if r.Op != message.OpPut && r.Op != message.OpDelete {
		return Record{}, ErrMalformedRecord
	}
	r.Key = buf[recHeader : recHeader+keyLen]
	r.Val = buf[recHeader+keyLen : recHeader+keyLen+valLen]
	return r, nil
}

// Ready-word layout: bit 63 = ack request flag; bits 48..62 = body size in
// bytes (15 bits, which is why withDefaults caps SlotSize below 1<<15);
// bits 0..47 = sequence number.
const (
	ackReqBit = uint64(1) << 63
	seqMask   = (uint64(1) << 48) - 1
)

func makeReady(seq uint64, size int, ackReq bool) uint64 {
	w := seq&seqMask | uint64(size)<<48&^ackReqBit
	if ackReq {
		w |= ackReqBit
	}
	return w
}

func splitReady(w uint64) (seq uint64, size int, ackReq bool) {
	return w & seqMask, int(w >> 48 &^ (1 << 15)), w&ackReqBit != 0
}

// Ack-word layout: bit 63 = nack flag; bits 0..47 = last applied seq (acks)
// or first failed seq (nacks); for nacks, bits 48..62 carry the number of
// discarded records whose ready words the secondary zeroed — exactly the
// range the primary must re-send.
const nackBit = uint64(1) << 63

func makeAck(lastApplied uint64) uint64 { return lastApplied & seqMask }

func makeNack(firstFailed uint64, discarded uint64) uint64 {
	return nackBit | (discarded&0x7fff)<<48 | firstFailed&seqMask
}

func splitAck(w uint64) (seq uint64, discarded uint64, nack bool) {
	return w & seqMask, w >> 48 & 0x7fff, w&nackBit != 0
}
