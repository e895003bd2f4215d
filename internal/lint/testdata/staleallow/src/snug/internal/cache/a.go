// Package cache exercises the staleallow analyzer, run together with
// maporder so directive usage is accounted in the same pass. The fixture
// poses as the result-affecting package snug/internal/cache so maporder
// actually judges it: a directive the named check suppressed is live, one
// it did not is stale, one naming no known check is a typo, and one naming
// a check that did not run (wallclock, absent here) is skipped.
package cache

var weights = map[string]int{"a": 1, "b": 2}

// Live has a directive that suppresses a real maporder finding: not stale.
func Live() int {
	total := 0
	for _, w := range weights { //snug:allow maporder commutative integer sum
		total += w
	}
	return total
}

// Stale has a directive on a line maporder finds nothing on.
func Stale(xs []int) int {
	total := 0
	for _, x := range xs { //snug:allow maporder ranges a slice, not a map // want "stale //snug:allow maporder"
		total += x
	}
	return total
}

// Typo names a check that does not exist; it can never suppress anything.
func Typo() int {
	total := 0
	for _, w := range weights { //snug:allow maporders typo'd name // want "range over map weights" "unknown check \"maporders\""
		total += w
	}
	return total
}

// NotRun names a check that is not part of this run; its usage is
// unknowable, so it is neither live nor stale.
func NotRun(n int) int {
	return 2 * n //snug:allow wallclock leftover from a removed timer
}
