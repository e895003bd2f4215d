// The directive audit over maporder, in the fixture posing as
// snug/internal/cache: a directive the named check suppressed is live, one
// it did not is stale, and one naming no known check is a typo. Every
// check runs over every package of the module, so a directive naming
// wallclock on a line without a clock read is stale too.

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

// NotRun names wallclock, which runs here as everywhere and finds no
// clock read on the line, so the directive is stale.
func NotRun(n int) int {
	return 2 * n //snug:allow wallclock leftover from a removed timer // want "stale //snug:allow wallclock"
}
