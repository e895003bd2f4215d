// Package stackdist is a scope fixture posing as snug/internal/stackdist,
// which computes Figures 1-3. Check covers every package of the module,
// so an unsorted map range or a clock read here is flagged.
package stackdist

import (
	"time"
)

var depths = map[int]int64{1: 3, 2: 5}

// Histogram lets map order reach its result.
func Histogram() []int64 {
	var out []int64
	for _, n := range depths { // want "range over map depths"
		out = append(out, n)
	}
	return out
}

// Stamp reads the wall clock.
func Stamp() int64 {
	return time.Now().UnixNano() // want "wall-clock read time.Now"
}
