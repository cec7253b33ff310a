// Package hashx provides the 64-bit key hashing used throughout hydradb.
//
// A single 64-bit hashcode per key drives three separate decisions, exactly
// as in the paper (§4, §4.1.3):
//
//   - consistent-hash routing of the key to a shard (high bits),
//   - the bucket index inside a shard's compact hash table (low bits),
//   - the 16-bit signature stored in a bucket slot to filter full-key
//     comparisons (middle bits).
//
// The mixer is a wyhash-style multiply-fold construction implemented with
// only stdlib arithmetic; it is fast, has good avalanche behaviour for the
// short keys the paper targets (16-byte keys), and is deterministic across
// runs so simulation results are reproducible.
package hashx

import "math/bits"

const (
	prime1 = 0xa0761d6478bd642f
	prime2 = 0xe7037ed1a0b428db
	prime3 = 0x8ebc6af09c88c6e3
	prime4 = 0x589965cc75374cc3
)

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// bytestring is a key in either representation; one generic body hashes both,
// so Hash(b) == HashString(string(b)) by construction and neither copies.
type bytestring interface{ ~string | ~[]byte }

func load64[K bytestring](b K) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func load32[K bytestring](b K) uint64 {
	_ = b[3]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
}

// Hash returns the 64-bit hashcode of key.
func Hash(key []byte) uint64 { return hash(key) }

// HashString is Hash for string keys; it reads the string in place.
func HashString(key string) uint64 { return hash(key) }

func hash[K bytestring](key K) uint64 {
	seed := uint64(prime1)
	n := len(key)
	var a, b uint64
	switch {
	case n == 0:
		a, b = 0, 0
	case n < 4:
		a = uint64(key[0])<<16 | uint64(key[n>>1])<<8 | uint64(key[n-1])
		b = 0
	case n <= 8:
		a = load32(key)
		b = load32(key[n-4:])
	case n <= 16:
		a = load64(key)
		b = load64(key[n-8:])
	default:
		i := n
		p := key
		if i > 48 {
			s1, s2 := seed, seed
			for ; i > 48; i -= 48 {
				seed = mix(load64(p)^prime2, load64(p[8:])^seed)
				s1 = mix(load64(p[16:])^prime3, load64(p[24:])^s1)
				s2 = mix(load64(p[32:])^prime4, load64(p[40:])^s2)
				p = p[48:]
			}
			seed ^= s1 ^ s2
		}
		for ; i > 16; i -= 16 {
			seed = mix(load64(p)^prime2, load64(p[8:])^seed)
			p = p[16:]
		}
		a = load64(key[n-16:])
		b = load64(key[n-8:])
	}
	return mix(prime2^uint64(n), mix(a^prime3, b^seed))
}

// Hash64 mixes a raw 64-bit value; used for integer-keyed tables such as the
// shared remote-pointer cache.
func Hash64(x uint64) uint64 {
	return mix(x^prime2, prime3)
}

// Signature extracts the 16-bit slot signature from a hashcode. It uses bits
// not used for bucket indexing (tables are sized far below 2^48 buckets) so
// signature and index stay independent.
func Signature(h uint64) uint16 {
	s := uint16(h >> 48)
	if s == 0 {
		// Zero is reserved as the "empty slot" marker in the table.
		s = 1
	}
	return s
}

// BucketIndex maps a hashcode onto nBuckets (a power of two).
func BucketIndex(h uint64, nBuckets uint64) uint64 {
	return h & (nBuckets - 1)
}
