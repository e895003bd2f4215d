// Package stats stubs snug/internal/stats for the seeddiscipline fixture:
// Check resolves NewRNG by package path, so the stub carries the real
// import path, and seeddiscipline exempts it as it exempts the real one.
package stats

// RNG is a stub deterministic generator.
type RNG struct{ s uint64 }

// NewRNG returns an RNG seeded from seed.
func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

// Mix64 is a stub splitmix64 finalizer.
func Mix64(x uint64) uint64 { return x * 0x9e3779b97f4a7c15 }

// HashString is a stub identity hash.
func HashString(s string) uint64 { return uint64(len(s)) }
