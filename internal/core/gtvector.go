package core

import "fmt"

// GTVector is the per-cache giver/taker bit vector of §3.1: one bit per L2
// set, addressable independently of the data arrays. Takers spill; givers
// receive. Peers consult each other's vectors (modeled as a direct lookup,
// with the extra latency charged via the SNUG remote-access latency of
// §4.1) to resolve spill placement and retrieval searches.
type GTVector struct {
	bits []uint64
}

// NewGTVector builds a vector for n sets, all initialized to giver.
func NewGTVector(n int) (*GTVector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: G/T vector size must be positive, got %d", n)
	}
	return &GTVector{bits: make([]uint64, (n+63)/64)}, nil
}

// MustGTVector is NewGTVector but panics on error.
func MustGTVector(n int) *GTVector {
	v, err := NewGTVector(n)
	if err != nil {
		panic(err)
	}
	return v
}

// Taker reports whether set s is marked as a taker.
func (v *GTVector) Taker(s uint32) bool {
	return v.bits[s/64]&(1<<(s%64)) != 0
}

// Giver reports whether set s is marked as a giver.
func (v *GTVector) Giver(s uint32) bool { return !v.Taker(s) }

// Set marks set s as taker (true) or giver (false).
func (v *GTVector) Set(s uint32, taker bool) {
	if taker {
		v.bits[s/64] |= 1 << (s % 64)
	} else {
		v.bits[s/64] &^= 1 << (s % 64)
	}
}

// TakerCount returns how many sets are currently takers.
func (v *GTVector) TakerCount() int {
	n := 0
	for _, w := range v.bits {
		n += popcount(w)
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
