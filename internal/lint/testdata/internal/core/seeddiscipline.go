// Package core is a seeddiscipline fixture posing as module package
// snug/internal/core.
package core

import (
	"snug/internal/stats"
)

// Bad hardwires a literal seed.
func Bad() *stats.RNG {
	return stats.NewRNG(42) // want "constant seed 42"
}

// BadConstExpr is still a compile-time constant.
func BadConstExpr() *stats.RNG {
	const base = 0xdead
	return stats.NewRNG(base ^ 7) // want "constant seed"
}

// Allowed carries an explicit justification.
func Allowed() *stats.RNG {
	return stats.NewRNG(1) //snug:allow seeddiscipline fixture generator for documentation examples
}

// GoodParam derives the seed from a parameter.
func GoodParam(seed uint64) *stats.RNG {
	return stats.NewRNG(seed ^ 0xcc)
}

// GoodDerived derives the seed from identity hashes.
func GoodDerived(name string) *stats.RNG {
	return stats.NewRNG(stats.Mix64(stats.HashString(name)))
}
