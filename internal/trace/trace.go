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

// maxDepth is the deepest demand band a profile may declare: a set's pool
// slots are numbered by uint8 ids.
const maxDepth = 256

// Validate reports profile construction errors. A profile it accepts is
// one the generator handles exactly: in particular the filler-kind
// thresholds DivFrac ≤ DivFrac+MultFrac ≤ DivFrac+MultFrac+FPFrac are
// non-decreasing and stay within [0, 1].
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile has no name")
	}
	if p.L2Every <= 0 {
		return fmt.Errorf("trace: %s: L2Every must be positive", p.Name)
	}
	if p.BranchEvery <= 0 {
		return fmt.Errorf("trace: %s: BranchEvery must be positive", p.Name)
	}
	if !(p.Burst >= 0) {
		return fmt.Errorf("trace: %s: Burst %v must be non-negative", p.Name, p.Burst)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"StoreFrac", p.StoreFrac},
		{"DepFrac", p.DepFrac},
		{"DepLoadFrac", p.DepLoadFrac},
		{"BranchBias", p.BranchBias},
		{"HardBranchFrac", p.HardBranchFrac},
		{"FPFrac", p.FPFrac},
		{"MultFrac", p.MultFrac},
		{"DivFrac", p.DivFrac},
	} {
		if !unitRange(f.v) {
			return fmt.Errorf("trace: %s: %s %v out of [0,1]", p.Name, f.name, f.v)
		}
	}
	if mix := p.DivFrac + p.MultFrac + p.FPFrac; mix > 1 {
		return fmt.Errorf("trace: %s: DivFrac+MultFrac+FPFrac = %v exceeds 1", p.Name, mix)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("trace: %s: profile needs at least one phase", p.Name)
	}
	totalFrac := 0.0
	for i, ph := range p.Phases {
		totalFrac += ph.FracOfRun
		bandSum := 0.0
		for _, b := range ph.Bands {
			if b.MinDepth < 1 || b.MaxDepth < b.MinDepth || b.MaxDepth > maxDepth {
				return fmt.Errorf("trace: %s phase %d: bad band depth range [%d,%d] (depths are 1..%d)", p.Name, i, b.MinDepth, b.MaxDepth, maxDepth)
			}
			bandSum += b.Frac
		}
		if math.Abs(bandSum-1) > 1e-9 {
			return fmt.Errorf("trace: %s phase %d: band fractions sum to %.4f, want 1", p.Name, i, bandSum)
		}
		if !unitRange(ph.Compulsory) {
			return fmt.Errorf("trace: %s phase %d: compulsory rate %.2f out of [0,1]", p.Name, i, ph.Compulsory)
		}
	}
	if math.Abs(totalFrac-1) > 1e-9 {
		return fmt.Errorf("trace: %s: phase fractions sum to %.4f, want 1", p.Name, totalFrac)
	}
	return nil
}

// unitRange reports whether v is a probability: in [0, 1] and not NaN.
func unitRange(v float64) bool { return v >= 0 && v <= 1 }

// branchSite is one static branch: its PC and the threshold (see
// Generator) of its taken probability.
type branchSite struct {
	pc    uint64
	taken uint64
}

// numSites is how many static branch sites a generator draws from.
const numSites = 64

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
//
// Synthesis runs ahead of Next: refill synthesizes whole units into buf,
// in stream order, and Next pops them. A generator takes no feedback from
// its reader, so when an instruction is synthesized cannot change it.
type Generator struct {
	prof       Profile
	geom       addr.Geometry
	rng        stats.RNG
	demandSeed uint64

	phaseIdx    int
	refsInPhase int64
	phaseLen    []int64

	depths []int32
	cum    []float64 // cumulative set-selection weights
	wSum   float64

	// recency holds each set's pool slots ordered MRU-first; touches sample
	// a stack distance and move the touched slot to the front.
	recency [][]uint8
	// poolSpan[d] is 1-ρ^d, the mass of the stack-distance distribution a
	// depth-d set truncates, and logRho is log ρ; both are set only for a
	// StackDecay ρ in (0,1).
	poolSpan []float64
	logRho   float64

	freshCtr []uint32

	branches [numSites]branchSite
	pc       uint64 // the PC of the last filler, access or call

	// Each probability a draw is compared with, as its threshold: draw x
	// passes probability p when stats.Below(x, stats.Threshold(p)), which
	// is exactly stats.Unit(x) < p. Cumulative ones take one draw for a
	// choice among several outcomes.
	tMem, tBr, tCall uint64 // unit: touch, branch, call, else filler
	tDiv, tMult, tFP uint64 // filler kind: divide, multiply, FP, else ALU
	tDep, tDepLoad   uint64 // DepFrac, DepLoadFrac
	tStore, tBurst   uint64 // StoreFrac, a burst's continuation
	tFresh           uint64 // the current phase's Compulsory

	// Next pops buf[head:n].
	head, n int
	buf     [bufLen]isa.Instr
}

// maxBurst caps same-block repeats so bursts stay within L1 residency.
const maxBurst = 24

// maxUnit is the longest unit: a touch's access plus maxBurst
// filler/repeat pairs.
const maxUnit = 1 + 2*maxBurst

// bufLen is the length of a generator's buffer, in instructions. A refill
// synthesizes units while a longest one still fits, so it makes at least
// bufLen-maxUnit+1 = 16. A longer buffer measured no faster and raised
// live4's peak RSS.
const bufLen = 64

// freshTagBase separates fresh (streaming) tags from pool tags.
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
		rng:        *stats.NewRNG(seed ^ stats.Mix64(uint64(len(prof.Name)))),
		demandSeed: nameSeed(prof.Name),
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
	cumMem := 1 / float64(prof.L2Every)
	cumBr := cumMem + 1/float64(prof.BranchEvery)
	cumCall := cumBr
	if prof.CallEvery > 0 {
		cumCall += 1 / float64(prof.CallEvery)
	}
	g.tMem, g.tBr, g.tCall = stats.Threshold(cumMem), stats.Threshold(cumBr), stats.Threshold(cumCall)
	cumDiv := prof.DivFrac
	cumMult := cumDiv + prof.MultFrac
	g.tDiv, g.tMult, g.tFP = stats.Threshold(cumDiv), stats.Threshold(cumMult), stats.Threshold(cumMult+prof.FPFrac)
	g.tDep, g.tDepLoad = stats.Threshold(prof.DepFrac), stats.Threshold(prof.DepLoadFrac)
	g.tStore, g.tBurst = stats.Threshold(prof.StoreFrac), stats.Threshold(prof.Burst/(1+prof.Burst))
	if rho := prof.StackDecay; rho > 0 && rho < 1 {
		g.poolSpan = make([]float64, maxDepth+1)
		for d := range g.poolSpan {
			g.poolSpan[d] = 1 - math.Pow(rho, float64(d))
		}
		g.logRho = math.Log(rho)
	}
	for i := range g.branches {
		bias := prof.BranchBias
		if float64(i) < prof.HardBranchFrac*numSites {
			bias = 0.5
		}
		g.branches[i] = branchSite{pc: seed<<8 ^ uint64(0x4000+i*16), taken: stats.Threshold(bias)}
	}
	g.enterPhase(0)
	return g, nil
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
//
// The salt must be set before the first Next: synthesis runs ahead of
// Next, so a later salt would re-map demand under instructions already
// synthesized. A later call panics.
func (g *Generator) WithDemandSalt(salt uint64) *Generator {
	if g.n != 0 {
		panic("trace: WithDemandSalt after the first Next: the generator has synthesized ahead under the old demand map")
	}
	g.demandSeed = nameSeed(g.prof.Name) ^ stats.Mix64(salt)
	g.enterPhase(g.phaseIdx)
	return g
}

// Name implements isa.Stream.
func (g *Generator) Name() string { return g.prof.Name }

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
	g.tFresh = stats.Threshold(ph.Compulsory)
	w := 0.0
	for s := range g.depths {
		seed := g.demandSeed
		// A stable per-set coin (independent of salt) anchors a fraction of
		// sets to the shared base map.
		if anchor := stats.Mix64(base ^ uint64(s)*0x517cc1b727220a95); stats.Unit(anchor) < demandCorrelation {
			seed = base
		}
		h := stats.Mix64(seed ^ uint64(s)*0x9E3779B97F4A7C15 ^ uint64(idx)<<32)
		d := bandDepth(ph.Bands, stats.Unit(h), h)
		g.depths[s] = int32(d)
		// Resize the recency permutation: keep surviving slots (< d) in
		// recency order so working sets overlap across phase transitions,
		// then append any missing slot ids at LRU positions.
		rec := g.recency[s][:0]
		var present [maxDepth]bool
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

// bandDepth returns the demand depth of a set whose uniform draw is f and
// whose hash is h: a depth in the first band whose cumulative fraction
// exceeds f, drawn by h. Rounding can leave the fractions' float sum just
// below 1 (apsi's sum to 1-2⁻⁵³), so an f at or past the sum takes the
// last band.
func bandDepth(bands []DemandBand, f float64, h uint64) int {
	b, acc := &bands[len(bands)-1], 0.0
	for i := range bands {
		if acc += bands[i].Frac; f < acc {
			b = &bands[i]
			break
		}
	}
	span := b.MaxDepth - b.MinDepth + 1
	return b.MinDepth + int(stats.Mix64(h)%uint64(span))
}

// Next implements isa.Stream: it pops the next synthesized instruction,
// refilling the buffer when it is empty.
func (g *Generator) Next(in *isa.Instr) {
	if g.head == g.n {
		g.refill()
	}
	*in = g.buf[g.head]
	g.head++
}

// refill synthesizes whole units into buf, in stream order, while a
// longest unit still fits, and rewinds Next to its start. A unit is a
// data touch with its L1-hit burst, a branch, a call/return pair, or one
// filler instruction; one draw picks which.
//
// The RNG state and the PC stay in locals, stored back once at the end.
// Filler units and a touch's burst make no call, so the state stays in
// registers on the filler path; touch, the one call, takes and returns the
// state by value. Each per-instruction rule is one inlined helper (filler,
// access, control) that takes its draws as arguments, so the order of the
// draws is written here, and TestStreamDigests pins it.
func (g *Generator) refill() {
	r, pc, n := g.rng, g.pc, 0
	buf := &g.buf
	for n <= bufLen-maxUnit {
		var u, x, y uint64
		r, u = r.Step()
		switch {
		case !stats.Below(u, g.tCall):
			r, x = r.Step()
			r, y = r.Step()
			pc += 4
			g.filler(&buf[n], pc, x, y)
			n++
		case stats.Below(u, g.tMem):
			var a addr.Addr
			r, a = g.touch(r)
			// The store decision is per touch, not per access: at most the
			// first access of a touch writes. Rolling an independent store
			// probability on every burst repeat would leave essentially
			// every resident block dirty (P ≈ 1-(1-storeFrac)^burst), which
			// would starve cooperative caching — only clean victims may
			// spill (§3.3).
			r, x = r.Step()
			pc += 4
			if stats.Below(x, g.tStore) {
				access(&buf[n], pc, a, isa.KindStore, false)
			} else {
				r, y = r.Step()
				access(&buf[n], pc, a, isa.KindLoad, stats.Below(y, g.tDepLoad))
			}
			n++
			// Same-block repeats: captured by L1, sustaining a realistic L1
			// hit rate without disturbing the L2-level reuse structure.
			for i := 0; i < maxBurst; i++ {
				if r, x = r.Step(); !stats.Below(x, g.tBurst) {
					break
				}
				r, x = r.Step()
				r, y = r.Step()
				g.filler(&buf[n], pc+4, x, y)
				r, x = r.Step()
				pc += 8
				access(&buf[n+1], pc, a, isa.KindLoad, stats.Below(x, g.tDepLoad))
				n += 2
			}
		case stats.Below(u, g.tBr):
			r, x = r.Step()
			r, y = r.Step()
			site := &g.branches[x%numSites]
			control(&buf[n], isa.KindBranch, site.pc, stats.Below(y, site.taken), 0)
			n++
		default:
			// A call, a two-instruction body and the return, which
			// exercise the RAS.
			call := pc + 4
			control(&buf[n], isa.KindCall, call, false, 0)
			r, x = r.Step()
			r, y = r.Step()
			g.filler(&buf[n+1], call+4, x, y)
			r, x = r.Step()
			r, y = r.Step()
			g.filler(&buf[n+2], call+8, x, y)
			control(&buf[n+3], isa.KindReturn, call+0x100, false, call+4)
			pc = call + 8
			n += 4
		}
	}
	g.rng, g.pc, g.head, g.n = r, pc, 0, n
}

// touch picks the block a data touch targets, drawing from r, and returns
// the advanced state and the block's address. It counts the touch toward
// the phase, and enters the next phase when this one is done.
func (g *Generator) touch(r stats.RNG) (stats.RNG, addr.Addr) {
	var x uint64
	r, x = r.Step()
	s := g.pickSet(x)
	var tag uint64
	if r, x = r.Step(); stats.Below(x, g.tFresh) {
		g.freshCtr[s]++
		tag = freshTagBase + uint64(g.freshCtr[s])
	} else {
		var slot int
		r, slot = g.touchPool(r, s)
		tag = 1 + uint64(slot)
	}
	g.refsInPhase++
	if g.refsInPhase >= g.phaseLen[g.phaseIdx] {
		g.enterPhase((g.phaseIdx + 1) % len(g.prof.Phases))
	}
	return r, g.geom.Rebuild(tag, s)
}

// pickSet samples a set index from the phase's weight distribution by
// draw x.
func (g *Generator) pickSet(x uint64) uint32 {
	target := stats.Unit(x) * g.wSum
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

// touchPool samples a stack distance for set s, drawing from r unless the
// set holds one block, and returns the advanced state and the touched pool
// slot, rotating it to MRU. With decay ρ ∈ (0,1), P(distance k) ∝ ρ^(k-1)
// truncated at d(S); otherwise distances are uniform over [1, d(S)].
func (g *Generator) touchPool(r stats.RNG, s uint32) (stats.RNG, int) {
	rec := g.recency[s]
	d := len(rec)
	if d == 1 {
		return r, int(rec[0])
	}
	var x uint64
	r, x = r.Step()
	var k int
	if g.poolSpan != nil {
		// Inverse CDF of the truncated geometric.
		u := stats.Unit(x) * g.poolSpan[d]
		k = 1 + int(math.Log(1-u)/g.logRho)
	} else {
		k = 1 + int(x%uint64(d))
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
	return r, int(slot)
}

// nameSeed hashes a benchmark name into the demand seed shared by all
// instances of that benchmark.
func nameSeed(name string) uint64 { return stats.HashString(name) }

// filler writes one compute instruction at pc into in: it depends on its
// predecessor when draw dep passes DepFrac, and draw kind picks its kind
// per the profile's mix. Like access and control, it sets every field,
// since buf's slots hold stale instructions, and writes each one in place:
// an isa.Instr built on the stack and stored by value is copied with wide
// loads that cannot forward from its narrow field stores, so every copy
// stalls.
//
// The kind is a sum of three 0/1 threshold tests rather than a switch,
// whose branches are a coin flip on the floating-point profiles. The sum
// counts how many of tFP >= tMult >= tDiv lie above the draw, which equals
// the switch's KindALU (0) … KindDiv (3) because those kinds are numbered
// 0…3 and Validate keeps the thresholds non-decreasing. The tests compare
// the draw's top 53 bits, m, as stats.Below does; shifting once keeps
// filler within the inliner's budget.
func (g *Generator) filler(in *isa.Instr, pc, dep, kind uint64) {
	in.PC = pc
	in.DepPrev = stats.Below(dep, g.tDep)
	m := kind >> 11
	in.Kind = isa.Kind(b2u(m < g.tFP) + b2u(m < g.tMult) + b2u(m < g.tDiv))
	in.Addr = 0
	in.Taken = false
	in.Target = 0
}

// access writes one load or store of address a at pc into in.
func access(in *isa.Instr, pc uint64, a addr.Addr, kind isa.Kind, dep bool) {
	in.Kind = kind
	in.PC = pc
	in.Addr = a
	in.Taken = false
	in.Target = 0
	in.DepPrev = dep
}

// control writes one branch, call or return into in.
func control(in *isa.Instr, kind isa.Kind, pc uint64, taken bool, target uint64) {
	in.Kind = kind
	in.PC = pc
	in.Addr = 0
	in.Taken = taken
	in.Target = target
	in.DepPrev = false
}

// b2u converts a bool to 0 or 1; the compiler lowers it without a branch.
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}
