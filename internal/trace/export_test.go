package trace

import "snug/internal/addr"

// Conveniences only tests use; density_test.go (package trace_test) reads
// Record through this file too.

// MustByName is ByName but panics on unknown names.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// MustGenerator is NewGenerator but panics on error.
func MustGenerator(prof Profile, geom addr.Geometry, seed uint64, totalRefs int64) *Generator {
	g, err := NewGenerator(prof, geom, seed, totalRefs)
	if err != nil {
		panic(err)
	}
	return g
}

// Record extends r until it holds at least n instructions, by reading
// through a cursor to the end of the recording until the log holds n; the
// sweep path extends lazily instead.
func (r *Recording) Record(n int64) {
	c := r.log.Cursor()
	for r.log.Len() < n {
		c.Off = c.Used
		c.Refill()
	}
}

// meanDemandWays returns the footprint implied by p's first phase, in
// average ways per set: the application-level capacity demand in units of
// the L2 associativity (16 ways = 1 MB for the Table 4 slice).
func meanDemandWays(p Profile) float64 {
	if len(p.Phases) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range p.Phases[0].Bands {
		sum += b.Frac * float64(b.MinDepth+b.MaxDepth) / 2
	}
	return sum
}
