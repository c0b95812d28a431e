package textkit

// FNV-1a hashing utilities used by the feature-hashing embedder and the
// deterministic pseudo-random choices inside the simulated LLM. We inline
// the constants rather than using hash/fnv to avoid per-call allocations
// in the embedding hot path.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 returns the 64-bit FNV-1a hash of s.
func Hash64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Hash64Seed hashes s mixed with a seed, so independent feature spaces
// (for example the sign hash and the bucket hash of a hashing-trick
// embedder) do not collide systematically.
func Hash64Seed(s string, seed uint64) uint64 { return NewHasher(seed).Add(s).Sum() }

// Hasher is Hash64Seed fed in pieces: NewHasher(seed).Add(a).Add(b).Sum()
// equals Hash64Seed(a+b, seed) without building a+b, so a draw keyed by
// several strings costs no allocation.
type Hasher uint64

// NewHasher starts a seeded hash.
func NewHasher(seed uint64) Hasher { return fnvOffset64 ^ Hasher(seed*fnvPrime64) }

// Add hashes the bytes of s after everything added so far.
func (h Hasher) Add(s string) Hasher {
	for i := 0; i < len(s); i++ {
		h ^= Hasher(s[i])
		h *= fnvPrime64
	}
	return h
}

// Sum returns the finished hash.
func (h Hasher) Sum() uint64 { return mix64(uint64(h)) }

// mix64 is a finaliser (splitmix64 style) that breaks up the linear
// structure FNV leaves in the low bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Bucket maps s into [0, n) using the seeded hash. n must be > 0.
func Bucket(s string, seed uint64, n int) int { return NewHasher(seed).Add(s).Bucket(n) }

// Bucket is Bucket for a hash fed in pieces.
func (h Hasher) Bucket(n int) int { return int(h.Sum() % uint64(n)) }

// Sign returns +1 or -1 derived from a seeded hash of s, used as the
// hashing-trick sign to make collisions unbiased in expectation.
func Sign(s string, seed uint64) float64 {
	if Hash64Seed(s, seed)&1 == 0 {
		return 1
	}
	return -1
}

// Unit maps s to a deterministic float in [0, 1). It is the source of all
// "stylistic" pseudo-randomness in the simulated LLM: same string, same
// draw, regardless of call order.
func Unit(s string, seed uint64) float64 { return NewHasher(seed).Add(s).Unit() }

// Unit is Unit for a hash fed in pieces.
func (h Hasher) Unit() float64 { return float64(h.Sum()>>11) / (1 << 53) }
