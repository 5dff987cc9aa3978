// Package xrand provides fast, reproducible pseudo-random number generation
// for the parallel preferential-attachment generator.
//
// The generator is SplitMix64 (Steele, Lea & Flood): its i-th output is a
// bijective mix of key + i·γ, a keyed counter-mode hash (Salmon et al.,
// SC'11) with one word of state, so the copy model can draw every
// attachment attempt from counters of its own (model.Drawer.Attempt).
//
// Bounded integers use Lemire's nearly-divisionless method, which is
// unbiased and avoids the modulo bias of the naive approach — important
// here because the copy model draws Theta(m) bounded uniforms and any bias
// would skew the attachment distribution.
package xrand

import "math/bits"

// SplitMix64 advances a splitmix64 state and returns the next value.
// It is used for seeding and for deriving per-stream seeds; it is a
// bijective mixer, so distinct inputs yield distinct outputs.
func SplitMix64(state *uint64) uint64 {
	*state += gamma
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gamma is SplitMix64's counter increment (the golden ratio, odd).
const gamma = 0x9e3779b97f4a7c15

// Rand is a SplitMix64 generator.
type Rand struct{ s uint64 }

// New returns a generator seeded with seed.
func New(seed uint64) *Rand { return &Rand{s: seed} }

// NewStream returns a generator for logical stream id derived from seed.
func NewStream(seed, id uint64) *Rand {
	r := &Rand{}
	r.SeedStream(seed, id)
	return r
}

// SeedStream re-seeds r in place to the (seed, id) stream — equivalent
// to NewStream(seed, id) without allocating. The id is mixed first, so
// consecutive ids start far apart on the counter.
func (r *Rand) SeedStream(seed, id uint64) { r.s = seed ^ SplitMix64(&id) }

// Seed resets the generator to the stream New(seed) starts.
func (r *Rand) Seed(seed uint64) { r.s = seed }

// SeedAt positions r at block of the stream New(key) starts, four draws
// to a block: blocks of at most four draws each read disjoint counters,
// in any order.
func (r *Rand) SeedAt(key, block uint64) { r.s = key + block*(4*gamma&(1<<64-1)) }

// Pair returns the first two draws of block of the stream New(key)
// starts — what the first two Uint64 calls after SeedAt(key, block)
// return — without a generator, so that a caller drawing one attempt a
// record can keep it inline.
func Pair(key, block uint64) (a, b uint64) {
	a = key + block*(4*gamma&(1<<64-1)) + gamma
	b = a + gamma
	a = (a ^ a>>30) * 0xbf58476d1ce4e5b9
	b = (b ^ b>>30) * 0xbf58476d1ce4e5b9
	a = (a ^ a>>27) * 0x94d049bb133111eb
	b = (b ^ b>>27) * 0x94d049bb133111eb
	return a ^ a>>31, b ^ b>>31
}

// Rebase returns the key whose block b is block block+b of the stream
// New(key) starts: Pair(Rebase(key, block), b) is Pair(key, block+b).
func Rebase(key, block uint64) uint64 { return key + block*(4*gamma&(1<<64-1)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 { return SplitMix64(&r.s) }

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Implementation is Lemire's nearly-divisionless unbiased method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // == (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Int64n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int64n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64n with n <= 0")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		swap(i, j)
	}
}
