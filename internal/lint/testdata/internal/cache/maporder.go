// Package cache is a fixture posing as module package snug/internal/cache.
package cache

import (
	"slices"
	"sort"
)

var registry = map[string]int{"a": 1, "b": 2}

// Bad iterates a map and lets the order reach a result.
func Bad() []string {
	var out []string
	for name := range registry { // want "range over map registry"
		out = append(out, name)
	}
	return out
}

// BadAccumulate float-accumulates in map order.
func BadAccumulate(weights map[string]float64) float64 {
	sum := 0.0
	for _, w := range weights { // want "range over map weights"
		sum += w
	}
	return sum
}

// SortedAfter is the canonical collect-then-sort idiom: not flagged.
func SortedAfter() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SortedSlices uses sort.Slice on the collected keys: not flagged.
func SortedSlices() []int {
	vals := make([]int, 0, len(registry))
	for _, v := range registry {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

// Allowed carries an explicit justification.
func Allowed() int {
	total := 0
	for _, v := range registry { //snug:allow maporder commutative integer sum
		total += v
	}
	return total
}

// Slices range over non-maps freely.
func Slices(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	ch := make(chan int, 1)
	ch <- 1
	close(ch)
	for v := range ch {
		s += v
	}
	return s
}

// NotSorted collects the keys, but slices.Contains does not sort them.
func NotSorted() []string {
	var out []string
	for name := range registry { // want "range over map registry"
		out = append(out, name)
	}
	if slices.Contains(out, "z") {
		return nil
	}
	return out
}

// SortedButSums sorts the collected keys, but the same loop also
// float-accumulates in map order.
func SortedButSums(weights map[string]float64) ([]string, float64) {
	var names []string
	sum := 0.0
	for name, w := range weights { // want "range over map weights"
		names = append(names, name)
		sum += w
	}
	sort.Strings(names)
	return names, sum
}
