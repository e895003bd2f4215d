package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**-style state initialized by splitmix64). The simulator must
// be bit-for-bit reproducible for a given seed across Go releases, so it
// does not use math/rand. The zero value is not valid; use NewRNG.
//
// The state is four named words rather than an array so that a local copy
// of an RNG can live in registers: a hot loop copies the RNG, draws with
// Step, and stores the copy back when it is done.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// NewRNG returns an RNG seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	var s [4]uint64
	sm := seed
	for i := range s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s[i] = z ^ (z >> 31)
	}
	return &RNG{s[0], s[1], s[2], s[3]}
}

// Step is one generator step in value form: it returns the advanced state
// and the next 64 pseudo-random bits. It inlines, so a loop that holds an
// RNG in a local keeps the state in registers. The update is xoshiro's
// s2 ^= s0; s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= old s1<<17;
// s3 = rotl(s3, 45), written as one expression to stay within the
// inliner's budget.
func (r RNG) Step() (RNG, uint64) {
	s2, s3 := r.s2^r.s0, r.s3^r.s1
	return RNG{r.s0 ^ s3, r.s1 ^ s2, s2 ^ r.s1<<17, bits.RotateLeft64(s3, 45)}, bits.RotateLeft64(r.s1*5, 7) * 9
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	var x uint64
	*r, x = r.Step()
	return x
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 { return Unit(r.Uint64()) }

// Unit maps a draw x to [0, 1) as Float64 does: the top 53 bits of x,
// scaled by 2⁻⁵³. Both steps are exact.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Threshold is the exact integer form of Bool(p): for every draw x,
// Below(x, Threshold(p)) equals Unit(x) < p. Unit(x) is m·2⁻⁵³ for the
// integer m = x>>11 < 2⁵³, and m·2⁻⁵³ < p holds exactly when m < ⌈p·2⁵³⌉;
// p·2⁵³ is exact, being p scaled by a power of two. A p of 1 or more
// passes every draw and one of 0, below it or NaN passes none, which also
// keeps the conversion to uint64 in range.
func Threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}

// Below reports whether draw x passes the threshold t, as Bool's
// comparison does on the same draw.
func Below(x, t uint64) bool { return x>>11 < t }

// Mix64 hashes x through splitmix64's finalizer. It is used for stateless
// deterministic decisions (e.g. assigning a per-set demand depth from the
// set index) so results do not depend on visit order.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString hashes s into a well-mixed 64-bit value (FNV-1a finalized by
// Mix64). It anchors every name-derived seed in the simulator: benchmark
// demand maps (internal/trace) and sweep job seeds (internal/sweep), so a
// job's randomness is a pure function of its identity, never of scheduling.
func HashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return Mix64(h)
}
