package schemes

import "snug/internal/config"

// setCategory classifies a set for DSR's set dueling.
type setCategory uint8

const (
	catFollower setCategory = iota
	catSpillSample
	catRecvSample
)

// DSR is Dynamic Spill-Receive (Qureshi, HPCA'09 [8]), the paper's
// state-of-the-art baseline. Each cache learns at the *application* level
// whether it should spill (taker) or receive (giver), via set dueling: a
// few dedicated sets always behave as spillers, a few always as receivers,
// and a per-cache policy selector (PSEL) counts off-chip misses suffered in
// each group. The follower sets adopt the policy whose samples miss less.
//
// Spiller caches push clean victims into the same-index set of a receiver
// cache; receiver caches accept. The paper's critique — and what SNUG
// fixes — is that the taker/giver decision is uniform across all 1024 sets
// of a cache even when demand varies set by set.
type DSR struct {
	coop
	sameIndex
	cat      [][]setCategory // [core][set]
	psel     []int           // per-core selector
	pselMax  int
	pselInit int
}

// NewDSR builds the DSR controller.
func NewDSR(cfg config.System) *DSR {
	sets := cfg.Mem.L2Slice.Sets()
	d := &DSR{
		cat:      make([][]setCategory, cfg.Cores),
		psel:     make([]int, cfg.Cores),
		pselMax:  (1 << cfg.DSR.PSELBits) - 1,
		pselInit: 1 << (cfg.DSR.PSELBits - 1),
	}
	d.coop = newCoop(cfg, "DSR", d, cfg.Mem.RemoteLat)
	stride := sets / cfg.DSR.SampleSets
	for c := 0; c < cfg.Cores; c++ {
		d.psel[c] = d.pselInit
		d.cat[c] = make([]setCategory, sets)
		// Dedicated sample sets are spread across the index space with a
		// per-core offset so different caches sample different sets.
		for k := 0; k < cfg.DSR.SampleSets; k++ {
			spill := (k*stride + c*7) % sets
			recv := (k*stride + c*7 + stride/2) % sets
			d.cat[c][spill] = catSpillSample
			d.cat[c][recv] = catRecvSample
		}
	}
	return d
}

// isSpiller reports the follower policy of core: spill when the
// spiller-sample sets suffered clearly fewer off-chip misses. The dead
// zone below the midpoint keeps capacity-neutral applications (whose duel
// is a random walk around the initial value) stably in the receiver role
// rather than flapping on noise.
func (d *DSR) isSpiller(core int) bool {
	deadZone := (d.pselMax + 1) / 16
	return d.psel[core] < d.pselInit-deadZone
}

// spillsFrom reports whether an eviction from (core, set) spills.
func (d *DSR) spillsFrom(core int, set uint32) bool {
	switch d.cat[core][set] {
	case catSpillSample:
		return true
	case catRecvSample:
		return false
	default:
		return d.isSpiller(core)
	}
}

// place accepts a spill at the same index when (host, set) receives.
func (d *DSR) place(host int, set uint32) (uint32, bool, bool) {
	switch d.cat[host][set] {
	case catSpillSample:
		return set, false, false
	case catRecvSample:
		return set, false, true
	default:
		return set, false, !d.isSpiller(host)
	}
}

// offChip trains PSEL on an off-chip miss in (core, set).
func (d *DSR) offChip(core int, set uint32) {
	switch d.cat[core][set] {
	case catSpillSample:
		if d.psel[core] < d.pselMax {
			d.psel[core]++
		}
	case catRecvSample:
		if d.psel[core] > 0 {
			d.psel[core]--
		}
	}
}
