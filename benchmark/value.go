package main

import (
	"encoding/binary"
	"math/bits"
)

// Values verify themselves: keyIdx ‖ writerSeq ‖ run seed ‖ checksum, 32
// bytes as in the paper's evaluation (§6). A GET that returns another key's
// value, a torn value, or bytes of another run fails checkValue and counts
// as a failed operation.
const valueLen = 32

func checksum(keyIdx, writerSeq, seed uint64) uint64 {
	h := keyIdx*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(writerSeq*0xc2b2ae3d27d4eb4f, 31) ^ seed*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>32
}

// encodeValue fills dst[:valueLen]. writerSeq carries the writer's id in its
// top 16 bits so two clients never produce the same value for a key.
func encodeValue(dst []byte, keyIdx int64, writerSeq, seed uint64) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(keyIdx))
	binary.LittleEndian.PutUint64(dst[8:], writerSeq)
	binary.LittleEndian.PutUint64(dst[16:], seed)
	binary.LittleEndian.PutUint64(dst[24:], checksum(uint64(keyIdx), writerSeq, seed))
}

func checkValue(v []byte, keyIdx int64, seed uint64) bool {
	if len(v) != valueLen || binary.LittleEndian.Uint64(v[0:]) != uint64(keyIdx) ||
		binary.LittleEndian.Uint64(v[16:]) != seed {
		return false
	}
	return binary.LittleEndian.Uint64(v[24:]) == checksum(uint64(keyIdx), binary.LittleEndian.Uint64(v[8:]), seed)
}
