// Package outside is not part of module snug, so Check leaves it alone:
// map ranges, wall-clock reads and math/rand draw no finding here.
package outside

var m = map[string]int{"a": 1}

// RangesMap ranges over a map without any diagnostic.
func RangesMap() int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}
