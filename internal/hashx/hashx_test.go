package hashx

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	key := []byte("user4839571203948571")
	h1 := Hash(key)
	h2 := Hash(key)
	if h1 != h2 {
		t.Fatalf("hash not deterministic: %x vs %x", h1, h2)
	}
}

func TestHashLengthRegimes(t *testing.T) {
	// Exercise every size branch: 0, <4, 4..8, 9..16, 17..48, >48.
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 24, 32, 48, 49, 64, 96, 100, 255}
	seen := make(map[uint64]int)
	for _, n := range sizes {
		key := make([]byte, n)
		for i := range key {
			key[i] = byte(i*7 + 13)
		}
		h := Hash(key)
		if prev, ok := seen[h]; ok {
			t.Errorf("collision between lengths %d and %d", prev, n)
		}
		seen[h] = n
	}
}

func TestHashStringMatchesHash(t *testing.T) {
	f := func(s string) bool {
		return HashString(s) == Hash([]byte(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHashStringMatchesHashEveryLength pins the equality routing, bucket
// index and signature all rely on across every size branch.
func TestHashStringMatchesHashEveryLength(t *testing.T) {
	key := make([]byte, 100)
	for i := range key {
		key[i] = byte(i*31 + 7)
	}
	for n := 0; n <= len(key); n++ {
		if Hash(key[:n]) != HashString(string(key[:n])) {
			t.Fatalf("length %d: Hash and HashString disagree", n)
		}
	}
}

func TestHashStringDoesNotAllocate(t *testing.T) {
	key := string(make([]byte, 64))
	if allocs := testing.AllocsPerRun(100, func() { _ = HashString(key) }); allocs != 0 {
		t.Fatalf("HashString of a 64 B key allocates %.1f/op", allocs)
	}
}

func TestHashDistinguishesSimilarKeys(t *testing.T) {
	// Keys differing in a single byte must hash differently in practice.
	base := []byte("0123456789abcdef") // 16-byte key, the paper's target size
	h0 := Hash(base)
	for i := range base {
		k := append([]byte(nil), base...)
		k[i] ^= 0x01
		if Hash(k) == h0 {
			t.Fatalf("single-byte flip at %d did not change hash", i)
		}
	}
}

func TestSignatureNeverZero(t *testing.T) {
	f := func(h uint64) bool { return Signature(h) != 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Signature(0) == 0 {
		t.Fatal("Signature(0) must not be zero")
	}
	// A hash whose top 16 bits are zero maps to the reserved value 1.
	if got := Signature(0x0000ffffffffffff); got != 1 {
		t.Fatalf("expected reserved signature 1, got %d", got)
	}
}

func TestBucketIndexInRange(t *testing.T) {
	f := func(h uint64) bool {
		const n = 1 << 14
		return BucketIndex(h, n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBucketDistributionUniformity(t *testing.T) {
	// Chi-square sanity: hashing sequential YCSB-style keys must spread
	// close to uniformly across buckets, otherwise the compact hash table
	// would overflow-chain pathologically.
	const nBuckets = 1 << 10
	const nKeys = 200000
	counts := make([]int, nBuckets)
	for i := 0; i < nKeys; i++ {
		key := []byte(fmt.Sprintf("user%016d", i))
		counts[BucketIndex(Hash(key), nBuckets)]++
	}
	expected := float64(nKeys) / nBuckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// For 1023 degrees of freedom the 99.9th percentile is ~1168.5.
	if chi2 > 1200 {
		t.Fatalf("bucket distribution too skewed: chi2=%.1f", chi2)
	}
}

func TestSignatureDistribution(t *testing.T) {
	const nKeys = 100000
	counts := make(map[uint16]int)
	for i := 0; i < nKeys; i++ {
		key := []byte(fmt.Sprintf("user%016d", i))
		counts[Signature(Hash(key))]++
	}
	// With 65535 possible signatures and 100k keys, the max count should
	// stay near the Poisson tail; anything above 20 indicates clustering.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max > 20 {
		t.Fatalf("signature clustering: max bucket %d", max)
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	totalBits := 0
	samples := 0
	for x := uint64(1); x < 1<<20; x = x*3 + 7 {
		h0 := Hash64(x)
		for b := 0; b < 64; b += 7 {
			h1 := Hash64(x ^ (1 << b))
			diff := h0 ^ h1
			n := 0
			for diff != 0 {
				diff &= diff - 1
				n++
			}
			totalBits += n
			samples++
		}
	}
	avg := float64(totalBits) / float64(samples)
	if math.Abs(avg-32) > 6 {
		t.Fatalf("poor avalanche: average %.1f bits flipped (want ~32)", avg)
	}
}

func BenchmarkHash16(b *testing.B) {
	key := []byte("0123456789abcdef")
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		_ = Hash(key)
	}
}

func BenchmarkHash64B(b *testing.B) {
	key := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		_ = Hash(key)
	}
}
