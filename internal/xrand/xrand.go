// Package xrand provides fast, reproducible pseudo-random number generation
// for the parallel preferential-attachment generator.
//
// The generator is xoshiro256** (Blackman & Vigna) seeded through
// splitmix64, the combination recommended by the xoshiro authors. Each
// processor rank derives an independent stream from a global seed and its
// rank, so distributed runs are reproducible for a fixed (seed, ranks)
// pair regardless of message interleaving.
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
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator. The zero value is invalid; construct
// with New or NewStream so the state is never all-zero.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// NewStream returns a generator for logical stream id derived from seed.
// Streams with distinct ids are seeded from well-separated splitmix64
// outputs, giving statistically independent sequences.
func NewStream(seed, id uint64) *Rand {
	r := &Rand{}
	r.SeedStream(seed, id)
	return r
}

// SeedStream re-seeds r in place to the (seed, id) stream — equivalent
// to NewStream(seed, id) without allocating. The generator's hot loops
// derive one stream per node; reusing a single Rand keeps that
// allocation-free.
func (r *Rand) SeedStream(seed, id uint64) {
	sm := seed
	// Mix the id through the seed so (seed, id) pairs map to distinct
	// splitmix64 trajectories rather than shifted copies of one another.
	sm ^= SplitMix64(&id) // id is advanced; its mixed value perturbs sm
	r.Seed(sm)
}

// Seed resets the generator state from seed via splitmix64.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = SplitMix64(&sm)
	}
	// splitmix64 output is never all-zero across four draws for any seed,
	// but guard anyway: an all-zero xoshiro state is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// State returns the generator's raw xoshiro256** state. Together with
// SetState it lets a checkpoint serialize a suspended node's stream
// position and resume it bit-exactly after a restart.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state previously captured with State. The caller
// must never pass an all-zero state (State of a validly seeded generator
// never returns one).
func (r *Rand) SetState(s [4]uint64) { r.s = s }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)

	return result
}

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
