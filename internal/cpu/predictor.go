// Package cpu models the out-of-order cores of Table 4: an 8-wide
// issue/commit pipeline with a 128-entry RUU window, 64-entry LSQ,
// functional-unit latencies, and a 2-level adaptive branch predictor
// (1024-entry pattern table, 10-bit global history) with BTB and return
// address stack. The model is a timing approximation in the style of
// interval simulation: it tracks per-instruction dispatch, completion and
// in-order commit times under window, width and LSQ constraints, which
// captures how L2 hit/miss latency differences translate into IPC — the
// transfer function the paper's evaluation depends on.
package cpu

import (
	"snug/internal/config"
	"snug/internal/isa"
)

// Predictor is a 2-level adaptive (GAp-style) direction predictor: a global
// history register indexes a table of 2-bit saturating counters, XOR-folded
// with the branch PC (gshare variant).
type Predictor struct {
	historyBits uint
	history     uint64
	table       []uint8 // 2-bit counters, weakly-not-taken initialized
}

// NewPredictor builds a predictor with tableSize entries (a power of two)
// and historyBits of global history.
func NewPredictor(tableSize int, historyBits int) *Predictor {
	if tableSize <= 0 || tableSize&(tableSize-1) != 0 {
		panic("cpu: predictor table size must be a positive power of two")
	}
	t := make([]uint8, tableSize)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &Predictor{historyBits: uint(historyBits), table: t}
}

// Update predicts, trains with the actual outcome, and reports whether the
// pre-update prediction was wrong.
func (p *Predictor) Update(pc uint64, taken bool) (mispredicted bool) {
	idx := p.index(pc)
	mispredicted = (p.table[idx] >= 2) != taken
	c := p.table[idx]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.table[idx] = c
	p.history = ((p.history << 1) | b2u(taken)) & ((1 << p.historyBits) - 1)
	return mispredicted
}

// index folds the PC into the gshare table slot for the current history.
func (p *Predictor) index(pc uint64) uint64 {
	return (pc>>2 ^ p.history) & uint64(len(p.table)-1)
}

// b2u is the branchless bool-to-bit conversion the history shift uses.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a set-associative branch target buffer tracking which branch PCs
// have been seen; a taken branch missing in the BTB costs a fetch redirect
// even when the direction was predicted correctly.
type BTB struct {
	sets, ways int
	tags       []uint64 // sets*ways, 0 = empty
	use        []uint64
	tick       uint64
}

// NewBTB builds a BTB with the given sets and ways.
func NewBTB(sets, ways int) *BTB {
	if sets <= 0 || sets&(sets-1) != 0 || ways <= 0 {
		panic("cpu: BTB sets must be a positive power of two and ways positive")
	}
	return &BTB{sets: sets, ways: ways, tags: make([]uint64, sets*ways), use: make([]uint64, sets*ways)}
}

// LookupInsert probes the BTB for pc and installs it if absent, returning
// whether it hit.
func (b *BTB) LookupInsert(pc uint64) bool {
	key := pc>>2 | 1 // never zero
	set := int(key) & (b.sets - 1)
	base := set * b.ways
	b.tick++
	lru, lruUse := base, ^uint64(0)
	for i := base; i < base+b.ways; i++ {
		if b.tags[i] == key {
			b.use[i] = b.tick
			return true
		}
		if b.use[i] < lruUse {
			lru, lruUse = i, b.use[i]
		}
	}
	b.tags[lru] = key
	b.use[lru] = b.tick
	return false
}

// RAS is a circular return-address stack. Calls push, returns pop; a
// mismatched pop is a misprediction. The synthetic streams exercise it via
// call/return instruction kinds.
type RAS struct {
	entries []uint64
	top     int
	depth   int
}

// NewRAS builds a return-address stack with n entries.
func NewRAS(n int) *RAS {
	if n <= 0 {
		panic("cpu: RAS size must be positive")
	}
	return &RAS{entries: make([]uint64, n)}
}

// Push records a call's return address.
func (r *RAS) Push(retPC uint64) {
	r.top = (r.top + 1) % len(r.entries)
	r.entries[r.top] = retPC
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts a return target and checks it against the actual target,
// returning whether the prediction was correct. An empty stack always
// mispredicts.
func (r *RAS) Pop(actual uint64) bool {
	if r.depth == 0 {
		return false
	}
	pred := r.entries[r.top]
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return pred == actual
}

// branchUnit is a core's branch prediction front end: the direction
// predictor, the BTB and the RAS. A live core owns one and so does a
// tape's recorder (tape.go); both train it through redirects, the one
// redirect rule.
type branchUnit struct {
	pred *Predictor
	btb  *BTB
	ras  *RAS
}

func newBranchUnit(cfg config.Core) branchUnit {
	return branchUnit{
		pred: NewPredictor(cfg.PredictorSize, cfg.HistoryLength),
		btb:  NewBTB(cfg.BTBSets, cfg.BTBWays),
		ras:  NewRAS(cfg.RASEntries),
	}
}

// redirects trains the predictors on a control-flow instruction (branch,
// call or return) and reports whether fetch must be redirected: a
// mispredicted direction, a taken branch or a call missing in the BTB,
// or a return whose target the RAS did not hold.
func (b *branchUnit) redirects(in *isa.Instr) bool {
	switch in.Kind {
	case isa.KindBranch:
		mispred := b.pred.Update(in.PC, in.Taken)
		if in.Taken && !b.btb.LookupInsert(in.PC) {
			mispred = true
		}
		return mispred
	case isa.KindCall:
		b.ras.Push(in.PC + 4)
		return !b.btb.LookupInsert(in.PC)
	case isa.KindReturn:
		return !b.ras.Pop(in.Target)
	}
	return false
}
