package schemes

import (
	"fmt"

	"snug/internal/config"
	"snug/internal/stats"
)

// CC is eviction-driven Cooperative Caching (Chang & Sohi [7]): when a
// clean local victim is evicted it is spilled, with a fixed probability,
// into the same-index set of a peer slice, regardless of whether either
// side benefits — the capacity-blindness the paper criticizes. Spilled
// blocks get one chance (a cooperative block evicted from its host is
// dropped, never re-spilled). A local miss broadcasts a retrieval; a peer
// holding the block forwards it and invalidates its copy.
//
// CC(Best) in the evaluation is CC run at each spill probability of
// config.CCSpillPercents with the best result selected per workload (§4.1).
type CC struct {
	coop
	sameIndex
	spillPct int
	rng      *stats.RNG
}

// NewCC builds cooperative caching spilling clean victims with probability
// spillPct percent (the spec parameter of "CC(75%)").
func NewCC(cfg config.System, spillPct int) *CC {
	c := &CC{spillPct: spillPct, rng: stats.NewRNG(cfg.Seed ^ 0xcc)}
	c.coop = newCoop(cfg, fmt.Sprintf("CC(%d%%)", spillPct), c, cfg.Mem.RemoteLat)
	return c
}

// spillsFrom draws the fixed spill probability; CC(0%) never draws.
func (c *CC) spillsFrom(int, uint32) bool {
	return c.spillPct != 0 && c.rng.Bool(float64(c.spillPct)/100)
}

// place accepts every spill: baseline CC hosts take the block at its own
// index.
func (*CC) place(_ int, set uint32) (uint32, bool, bool) { return set, false, true }
