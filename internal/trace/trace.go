// Package trace synthesizes the dynamic instruction/address streams of the
// SPEC CPU2000 benchmarks the paper evaluates. SPEC binaries and reference
// inputs are proprietary and PolyScalar is not distributable, so each
// benchmark is modeled as a parameterized generator calibrated to the
// properties the paper reports and exploits:
//
//   - application-level L2 capacity demand (> or < 1 MB — Table 6),
//   - the per-set demand distribution (fraction of sets requiring 1–4,
//     5–8, … blocks — the quantity Figures 1–3 plot),
//   - phase behaviour (vortex's mid-run phase between sampling intervals
//     ~405 and ~792 — Figure 2),
//   - streaming/compulsory-miss behaviour (applu, swim — Figure 3),
//   - instruction mix, dependence structure and branch predictability
//     (which set the core's latency tolerance).
//
// A generator's address stream works at L2-set granularity: every set of
// the L2 geometry is assigned a demand depth d(S) drawn from the profile's
// current phase; touches to a set pick uniformly among its d(S) resident
// blocks, so the set's measured block_required (Formula 3) concentrates at
// d(S). Short same-block bursts model L1-captured reuse so the L2 access
// stream (post-L1 filter) retains the intended set-level structure.
package trace

import (
	"fmt"
	"math"

	"snug/internal/addr"
	"snug/internal/isa"
	"snug/internal/stats"
)

// Class is the paper's Table 6 application classification.
type Class uint8

const (
	// ClassA : > 1 MB demand, set-level non-uniform (ammp, parser, vortex).
	ClassA Class = iota
	// ClassB : < 1 MB demand, set-level non-uniform (apsi, gcc).
	ClassB
	// ClassC : > 1 MB demand, set-level uniform (vpr, art, mcf, bzip2).
	ClassC
	// ClassD : < 1 MB demand, set-level uniform (gzip, swim, mesa).
	ClassD
	// ClassChar marks characterization-only models (applu).
	ClassChar
)

// String returns the class label used by Table 6.
func (c Class) String() string {
	switch c {
	case ClassA:
		return "A"
	case ClassB:
		return "B"
	case ClassC:
		return "C"
	case ClassD:
		return "D"
	case ClassChar:
		return "char"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// DemandBand assigns a fraction of sets a demand depth drawn uniformly from
// [MinDepth, MaxDepth] blocks.
type DemandBand struct {
	Frac     float64
	MinDepth int
	MaxDepth int
}

// Phase is one program phase: a per-set demand distribution plus streaming
// intensity, lasting FracOfRun of the generator's phase cycle.
type Phase struct {
	FracOfRun  float64
	Bands      []DemandBand
	Compulsory float64 // probability a touch allocates a never-seen block
	HotWeight  float64 // set access weight = depth^HotWeight (0 = uniform)
}

// Profile is a benchmark personality.
type Profile struct {
	Name  string
	Class Class

	// L2Every is the mean number of instructions between distinct-block
	// data touches (the touches that reach L2 after L1 filtering).
	L2Every int
	// Burst is the mean number of immediate same-block repeat accesses per
	// touch; repeats hit in L1 and set the L1 hit rate.
	Burst float64
	// StoreFrac is the probability a data access is a store.
	StoreFrac float64

	BranchEvery    int     // mean instructions between conditional branches
	HardBranchFrac float64 // fraction of branch sites with ~50/50 outcomes
	BranchBias     float64 // taken probability of the remaining sites
	CallEvery      int     // mean instructions between call/return pairs (0 disables)

	FPFrac   float64 // fraction of filler ops that are floating-point
	MultFrac float64 // fraction of filler ops that are multiplies
	DivFrac  float64 // fraction of filler ops that are divides
	DepFrac  float64 // fraction of filler ops depending on the previous op
	// DepLoadFrac is the probability a load depends on the previous
	// instruction (pointer chasing — high for mcf, low for art).
	DepLoadFrac float64

	// StackDecay is the per-position decay ρ of the within-set LRU
	// stack-distance distribution: a touch references the k-th most
	// recently used of the set's d(S) resident blocks with
	// P(k) ∝ ρ^(k-1), truncated at d(S). This directly realizes the
	// paper's §2.1 model — hits occur at LRU depths up to block_required —
	// and gives every LRU position real future value, so both the marginal
	// gain of extra ways and the cost of evicting a victim decay smoothly
	// with depth. Values outside (0,1) mean uniform stack distances.
	StackDecay float64

	Phases []Phase
}

// Validate reports profile construction errors.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile has no name")
	}
	if p.L2Every <= 0 {
		return fmt.Errorf("trace: %s: L2Every must be positive", p.Name)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("trace: %s: profile needs at least one phase", p.Name)
	}
	totalFrac := 0.0
	for i, ph := range p.Phases {
		totalFrac += ph.FracOfRun
		bandSum := 0.0
		for _, b := range ph.Bands {
			if b.MinDepth < 1 || b.MaxDepth < b.MinDepth {
				return fmt.Errorf("trace: %s phase %d: bad band depth range [%d,%d]", p.Name, i, b.MinDepth, b.MaxDepth)
			}
			bandSum += b.Frac
		}
		if math.Abs(bandSum-1) > 1e-9 {
			return fmt.Errorf("trace: %s phase %d: band fractions sum to %.4f, want 1", p.Name, i, bandSum)
		}
		if ph.Compulsory < 0 || ph.Compulsory > 1 {
			return fmt.Errorf("trace: %s phase %d: compulsory rate %.2f out of [0,1]", p.Name, i, ph.Compulsory)
		}
	}
	if math.Abs(totalFrac-1) > 1e-9 {
		return fmt.Errorf("trace: %s: phase fractions sum to %.4f, want 1", p.Name, totalFrac)
	}
	return nil
}

// MeanDemandWays returns the footprint implied by the first phase, in
// average ways per set — the application-level capacity demand in units of
// the L2 associativity (16 ways = 1 MB for the Table 4 slice).
func (p Profile) MeanDemandWays() float64 {
	if len(p.Phases) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range p.Phases[0].Bands {
		sum += b.Frac * float64(b.MinDepth+b.MaxDepth) / 2
	}
	return sum
}

// branchSite is one static branch with its outcome bias.
type branchSite struct {
	pc   uint64
	bias float64
}

// Generator produces the dynamic stream for one benchmark instance. It
// implements isa.Stream deterministically for a fixed seed.
//
// Two separate seeds are in play: the per-instance stream seed randomizes
// access interleaving, and a benchmark-derived demand seed fixes the
// per-set depth assignment. The latter must NOT vary by instance: the
// paper's C1/C2 stress tests co-schedule identical applications precisely
// because they have the same capacity demand at both application and set
// level (§4.2), so two instances of one benchmark must agree on which sets
// are hot.
type Generator struct {
	prof       Profile
	geom       addr.Geometry
	rng        *stats.RNG
	seed       uint64
	demandSeed uint64

	totalRefs   int64 // distinct touches per full phase rotation
	phaseIdx    int
	refsInPhase int64
	phaseLen    []int64

	depths []int32
	cum    []float64 // cumulative set-selection weights
	wSum   float64

	// recency holds each set's pool slots ordered MRU-first; touches sample
	// a stack distance and move the touched slot to the front.
	recency [][]uint8

	freshCtr []uint32

	queue []isa.Instr
	head  int

	branches []branchSite
	pcTick   uint64

	// Cached per-instruction decision thresholds (plan/filler run once per
	// emitted instruction — the simulator's hottest path — so the divisions
	// behind them are hoisted out of it). Cumulative: a single uniform draw
	// is compared against each in order.
	cumMem, cumBr, cumCall float64 // unit-type thresholds (touch/branch/call)
	cumDiv, cumMult, cumFP float64 // filler-kind thresholds
	burstCont              float64 // same-block burst continuation probability
}

// maxBurst caps same-block repeats so bursts stay within L1 residency.
const maxBurst = 24

// poolTagBase separates pool tags from fresh (streaming) tags.
const freshTagBase = 1 << 20

// NewGenerator builds a generator for prof over the given L2 geometry.
// totalRefs is the number of distinct touches in one full phase rotation
// (controls where vortex-style phase boundaries fall); seed fixes the
// stream.
func NewGenerator(prof Profile, geom addr.Geometry, seed uint64, totalRefs int64) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if totalRefs <= 0 {
		return nil, fmt.Errorf("trace: totalRefs must be positive, got %d", totalRefs)
	}
	g := &Generator{
		prof:       prof,
		geom:       geom,
		rng:        stats.NewRNG(seed ^ stats.Mix64(uint64(len(prof.Name)))),
		seed:       seed,
		demandSeed: nameSeed(prof.Name),
		totalRefs:  totalRefs,
		depths:     make([]int32, geom.Sets()),
		cum:        make([]float64, geom.Sets()),
		recency:    make([][]uint8, geom.Sets()),
		freshCtr:   make([]uint32, geom.Sets()),
	}
	g.phaseLen = make([]int64, len(prof.Phases))
	for i, ph := range prof.Phases {
		g.phaseLen[i] = int64(ph.FracOfRun * float64(totalRefs))
		if g.phaseLen[i] <= 0 {
			g.phaseLen[i] = 1
		}
	}
	g.cumMem = 1 / float64(prof.L2Every)
	g.cumBr = g.cumMem + 1/float64(prof.BranchEvery)
	g.cumCall = g.cumBr
	if prof.CallEvery > 0 {
		g.cumCall += 1 / float64(prof.CallEvery)
	}
	g.cumDiv = prof.DivFrac
	g.cumMult = g.cumDiv + prof.MultFrac
	g.cumFP = g.cumMult + prof.FPFrac
	g.burstCont = prof.Burst / (1 + prof.Burst)
	nb := 64
	g.branches = make([]branchSite, nb)
	for i := range g.branches {
		bias := prof.BranchBias
		if float64(i) < prof.HardBranchFrac*float64(nb) {
			bias = 0.5
		}
		g.branches[i] = branchSite{pc: seed<<8 ^ uint64(0x4000+i*16), bias: bias}
	}
	g.enterPhase(0)
	return g, nil
}

// MustGenerator is NewGenerator but panics on error.
func MustGenerator(prof Profile, geom addr.Geometry, seed uint64, totalRefs int64) *Generator {
	g, err := NewGenerator(prof, geom, seed, totalRefs)
	if err != nil {
		panic(err)
	}
	return g
}

// WithDemandSalt decorrelates this instance's per-set demand map from other
// instances of the same benchmark, re-deriving the per-set depths.
//
// Rationale: the L2 is physically indexed, and two co-scheduled processes
// running the same binary receive different virtual-to-physical page
// mappings, so the *distribution* of set-level demand is identical across
// instances (the paper's stress-test premise) while the concrete hot-set
// indexes differ per instance. Salt 0 leaves instances perfectly aligned
// (an ablation knob: it disables all same-distribution complementarity).
func (g *Generator) WithDemandSalt(salt uint64) *Generator {
	g.demandSeed = nameSeed(g.prof.Name) ^ stats.Mix64(salt)
	g.enterPhase(g.phaseIdx)
	return g
}

// Name implements isa.Stream.
func (g *Generator) Name() string { return g.prof.Name }

// PhaseIndex returns the current phase.
func (g *Generator) PhaseIndex() int { return g.phaseIdx }

// DemandDepth returns the current demand depth of set s (exported for
// tests and the characterization harness).
func (g *Generator) DemandDepth(s uint32) int { return int(g.depths[s]) }

// demandCorrelation is the fraction of sets whose demand assignment stays
// anchored to the benchmark's base map regardless of the instance salt.
// Co-scheduled instances of one binary share data-structure geometry (the
// paper's stress-test premise) but differ in physical page placement, so
// their hot-set maps coincide partially, not perfectly.
const demandCorrelation = 0.5

// enterPhase assigns per-set depths and the set-selection weights for
// phase idx. Assignment is stateless-hash based so it does not depend on
// visit order, and nested pools (slots 0..d-1) keep working sets
// overlapping across phase transitions.
func (g *Generator) enterPhase(idx int) {
	g.phaseIdx = idx
	g.refsInPhase = 0
	base := nameSeed(g.prof.Name)
	ph := &g.prof.Phases[idx]
	w := 0.0
	for s := range g.depths {
		seed := g.demandSeed
		// A stable per-set coin (independent of salt) anchors a fraction of
		// sets to the shared base map.
		if anchor := stats.Mix64(base ^ uint64(s)*0x517cc1b727220a95); float64(anchor>>11)/(1<<53) < demandCorrelation {
			seed = base
		}
		h := stats.Mix64(seed ^ uint64(s)*0x9E3779B97F4A7C15 ^ uint64(idx)<<32)
		f := float64(h>>11) / (1 << 53)
		d := 1
		acc := 0.0
		for _, b := range ph.Bands {
			acc += b.Frac
			if f < acc || &b == &ph.Bands[len(ph.Bands)-1] {
				span := b.MaxDepth - b.MinDepth + 1
				d = b.MinDepth + int(stats.Mix64(h)%uint64(span))
				break
			}
		}
		g.depths[s] = int32(d)
		// Resize the recency permutation: keep surviving slots (< d) in
		// recency order so working sets overlap across phase transitions,
		// then append any missing slot ids at LRU positions.
		rec := g.recency[s][:0]
		var present [256]bool
		for _, id := range g.recency[s] {
			if int(id) < d && !present[id] {
				present[id] = true
				rec = append(rec, id)
			}
		}
		for id := 0; id < d; id++ {
			if !present[id] {
				rec = append(rec, uint8(id))
			}
		}
		g.recency[s] = rec
		switch {
		case ph.HotWeight == 0:
			w += 1
		case ph.HotWeight == 1:
			w += float64(d)
		default:
			w += math.Pow(float64(d), ph.HotWeight)
		}
		g.cum[s] = w
	}
	g.wSum = w
}

// pickSet samples a set index from the phase's weight distribution.
func (g *Generator) pickSet() uint32 {
	target := g.rng.Float64() * g.wSum
	lo, hi := 0, len(g.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cum[mid] <= target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// Next implements isa.Stream. It plans the next unit in place: a data-touch
// burst, a branch, a call/return pair, or filler compute. Filler — the vast
// majority of the stream — is written straight into in, skipping the queue
// round trip; multi-instruction units go through the queue. The RNG draw
// order is identical either way, so streams are unchanged by the fast path.
func (g *Generator) Next(in *isa.Instr) {
	if g.head < len(g.queue) {
		*in = g.queue[g.head]
		g.head++
		return
	}
	g.queue = g.queue[:0]
	g.head = 0
	r := g.rng.Float64()
	switch {
	case r < g.cumMem:
		g.planTouch()
	case r < g.cumBr:
		g.planBranch()
	case r < g.cumCall:
		g.planCall()
	default:
		*in = g.filler()
		return
	}
	*in = g.queue[0]
	g.head = 1
}

// planTouch emits one distinct-block access followed by its L1-hit burst.
func (g *Generator) planTouch() {
	ph := &g.prof.Phases[g.phaseIdx]
	s := g.pickSet()
	var tag uint64
	if g.rng.Bool(ph.Compulsory) {
		g.freshCtr[s]++
		tag = freshTagBase + uint64(g.freshCtr[s])
	} else {
		tag = 1 + uint64(g.touchPool(s))
	}
	a := g.geom.Rebuild(tag, s)
	// The store decision is per touch, not per access: at most the first
	// access of a touch writes. Rolling an independent store probability on
	// every burst repeat would leave essentially every resident block dirty
	// (P ≈ 1-(1-storeFrac)^burst), which would starve cooperative caching —
	// only clean victims may spill (§3.3).
	g.emitAccess(a, g.rng.Bool(g.prof.StoreFrac))

	// Same-block repeats: captured by L1, sustaining a realistic L1 hit
	// rate without disturbing the L2-level reuse structure.
	n := 0
	for n < maxBurst && g.rng.Bool(g.burstCont) {
		g.queue = append(g.queue, g.filler())
		g.emitAccess(a, false)
		n++
	}

	g.refsInPhase++
	if g.refsInPhase >= g.phaseLen[g.phaseIdx] {
		g.enterPhase((g.phaseIdx + 1) % len(g.prof.Phases))
	}
}

// touchPool samples a stack distance for set s and returns the touched pool
// slot, rotating it to MRU. With decay ρ ∈ (0,1), P(distance k) ∝ ρ^(k-1)
// truncated at d(S); otherwise distances are uniform over [1, d(S)].
func (g *Generator) touchPool(s uint32) int {
	rec := g.recency[s]
	d := len(rec)
	if d == 1 {
		return int(rec[0])
	}
	var k int
	rho := g.prof.StackDecay
	if rho > 0 && rho < 1 {
		// Inverse CDF of the truncated geometric.
		u := g.rng.Float64() * (1 - math.Pow(rho, float64(d)))
		k = 1 + int(math.Log(1-u)/math.Log(rho))
	} else {
		k = 1 + g.rng.Intn(d)
	}
	if k < 1 {
		k = 1
	}
	if k > d {
		k = d
	}
	slot := rec[k-1]
	copy(rec[1:k], rec[0:k-1])
	rec[0] = slot
	return int(slot)
}

// emitAccess appends one load/store of address a.
func (g *Generator) emitAccess(a addr.Addr, store bool) {
	g.pcTick += 4
	in := isa.Instr{PC: g.pcTick, Addr: a}
	if store {
		in.Kind = isa.KindStore
	} else {
		in.Kind = isa.KindLoad
		in.DepPrev = g.rng.Bool(g.prof.DepLoadFrac)
	}
	g.queue = append(g.queue, in)
}

// planBranch emits one conditional branch from the benchmark's site pool.
func (g *Generator) planBranch() {
	site := &g.branches[g.rng.Intn(len(g.branches))]
	g.queue = append(g.queue, isa.Instr{
		Kind:  isa.KindBranch,
		PC:    site.pc,
		Taken: g.rng.Bool(site.bias),
	})
}

// planCall emits a call / body / return triple exercising the RAS.
func (g *Generator) planCall() {
	g.pcTick += 4
	callPC := g.pcTick
	g.queue = append(g.queue,
		isa.Instr{Kind: isa.KindCall, PC: callPC},
		g.filler(),
		g.filler(),
		isa.Instr{Kind: isa.KindReturn, PC: callPC + 0x100, Target: callPC + 4},
	)
}

// nameSeed hashes a benchmark name into the demand seed shared by all
// instances of that benchmark.
func nameSeed(name string) uint64 { return stats.HashString(name) }

// filler returns one compute instruction per the profile's mix.
func (g *Generator) filler() isa.Instr {
	g.pcTick += 4
	in := isa.Instr{PC: g.pcTick, DepPrev: g.rng.Bool(g.prof.DepFrac)}
	r := g.rng.Float64()
	switch {
	case r < g.cumDiv:
		in.Kind = isa.KindDiv
	case r < g.cumMult:
		in.Kind = isa.KindMult
	case r < g.cumFP:
		in.Kind = isa.KindFPU
	default:
		in.Kind = isa.KindALU
	}
	return in
}
