// Package kv implements the per-shard item store: arena-resident key-value
// items indexed by the compact hash table, with out-of-place updates, atomic
// guardian words, popularity-scaled leases and deferred memory reclamation
// (paper §4.1.3, §4.2.3).
//
// A Store is single-threaded — it is owned exclusively by one shard (§4.1.1)
// and is driven either by the live shard event loop or by a simulated shard
// actor. Clients interact with its memory only through one-sided RDMA Reads
// of the arena plus atomic loads of the guardian/lease words, which is safe
// because items are never modified in place.
package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Item layout inside the arena byte area:
//
//	[0:2)  keyLen  (uint16, little endian)
//	[2:6)  valLen  (uint32, little endian)
//	[6:6+keyLen)           key bytes
//	[6+keyLen:6+keyLen+valLen) value bytes
//
// The guardian word and lease word live in the word area of the same memory
// region at MetaIdx and MetaIdx+1 (see DESIGN.md for why they are not inline).
const (
	ItemHeaderSize = 6

	// GuardianLive marks a valid item; GuardianDead marks an outdated or
	// deleted one. A client RDMA Read always fetches the guardian with the
	// item and discards the data when it is not GuardianLive.
	GuardianLive uint64 = 0 // hydralint:publish storing this releases the item
	GuardianDead uint64 = 1 // hydralint:unpublish storing this retracts the item

	// MetaWordsPerItem is the word-group size. The group is the item's
	// record, and the hash table's reference names it: [0] guardian and
	// [1] lease, which a one-sided Read fetches with the item, then the
	// owner-only [2] location (dataOff<<32 | dataLen) and [3] popularity
	// (access<<32 | epoch). A group is 32 B and aligned, so it never
	// straddles a cache line.
	MetaWordsPerItem = 4
)

// MaxKeyLen and MaxValLen bound item dimensions. A key length must fit the
// 16-bit length field of the item header (and of the request header). An
// item must fit the arena's largest size class (arena.MaxAlloc, 8 MB), so
// MaxValLen is the largest value beside a one-byte key; a longer key lowers
// the bound by its length.
const (
	MaxKeyLen = 1<<16 - 1
	MaxValLen = 8<<20 - ItemHeaderSize - 1
)

var (
	// ErrKeyTooLarge reports a key above MaxKeyLen.
	ErrKeyTooLarge = errors.New("kv: key too large")
	// ErrValTooLarge reports an item whose ItemSize exceeds the arena's
	// largest class (arena.MaxAlloc): a value above MaxValLen, or a value
	// that does not fit beside its key.
	ErrValTooLarge = errors.New("kv: value too large")
	// ErrStoreFull reports arena or word-area exhaustion that reclamation
	// could not relieve.
	ErrStoreFull = errors.New("kv: store full")
)

// ItemSize returns the arena footprint of a key/value pair.
func ItemSize(keyLen, valLen int) int { return ItemHeaderSize + keyLen + valLen }

// EncodeItem writes the item layout into buf, which must be at least
// ItemSize(len(key), len(val)) bytes.
func EncodeItem(buf, key, val []byte) {
	binary.LittleEndian.PutUint16(buf[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(val)))
	copy(buf[ItemHeaderSize:], key)
	copy(buf[ItemHeaderSize+len(key):], val)
}

// DecodeItem parses an item buffer, returning views of the key and value.
// ok is false when the buffer is malformed (e.g. a stale RDMA Read of a
// recycled, zeroed area).
func DecodeItem(buf []byte) (key, val []byte, ok bool) {
	if len(buf) < ItemHeaderSize {
		return nil, nil, false
	}
	keyLen := int(binary.LittleEndian.Uint16(buf[0:2]))
	valLen := int(binary.LittleEndian.Uint32(buf[2:6]))
	if keyLen == 0 || ItemHeaderSize+keyLen+valLen > len(buf) {
		return nil, nil, false
	}
	key = buf[ItemHeaderSize : ItemHeaderSize+keyLen]
	val = buf[ItemHeaderSize+keyLen : ItemHeaderSize+keyLen+valLen]
	return key, val, true
}

// RemotePtr describes the server-side location of an item: everything a
// client needs to fetch it with a single RDMA Read and validate the result
// (§4.2.2). It is returned alongside GET/PUT responses and cached client-side.
type RemotePtr struct {
	ShardID uint32 // global shard identity (routing epoch scoped)
	DataOff uint32 // arena offset of the item
	DataLen uint32 // ItemSize bytes
	MetaIdx uint32 // guardian word index; lease is MetaIdx+1
}

// Zero reports whether the pointer is unset.
func (p RemotePtr) Zero() bool { return p.DataLen == 0 }

// String renders the pointer for diagnostics.
func (p RemotePtr) String() string {
	return fmt.Sprintf("rp{shard=%d off=%d len=%d meta=%d}", p.ShardID, p.DataOff, p.DataLen, p.MetaIdx)
}
