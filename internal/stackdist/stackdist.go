// Package stackdist implements the paper's §2.1 quantification of set-level
// capacity demand: a Mattson LRU stack-distance profiler with an
// A_threshold-deep stack per cache set, per-set hit-position histograms,
// the block_required(S, I) computation of Formula (3), and the bucket
// membership / bucket-size characterization of Formulas (4)–(5).
//
// Under LRU's stack (inclusion) property, the number of hits a set would see
// with associativity A equals the number of accesses whose LRU stack
// distance is <= A. block_required(S, I) is therefore the smallest A whose
// cumulative hit count equals the cumulative hit count at A_threshold —
// exactly Formula (3), which the paper prefers over Formula (2) because hit
// positions are cheap to observe.
package stackdist

import (
	"fmt"

	"snug/internal/addr"
	"snug/internal/stats"
)

// Profiler tracks, for every set of a cache geometry, an LRU stack of up to
// A_threshold tags and a histogram of hit positions (1-based LRU depth).
type Profiler struct {
	geom       addr.Geometry
	aThreshold int

	// stacks is a per-set MRU→LRU tag list; hitCounts[s][d] counts hits at
	// 1-based depth d+1 within the current sampling interval.
	stacks    [][]uint64
	hitCounts [][]int32
	accesses  int64 // accesses within the current interval
}

// NewProfiler builds a profiler for the given geometry with stacks
// aThreshold entries deep. The paper sets A_threshold to twice the baseline
// associativity (32 for the 16-way L2).
func NewProfiler(geom addr.Geometry, aThreshold int) (*Profiler, error) {
	if aThreshold <= 0 {
		return nil, fmt.Errorf("stackdist: A_threshold must be positive, got %d", aThreshold)
	}
	sets := geom.Sets()
	p := &Profiler{
		geom:       geom,
		aThreshold: aThreshold,
		stacks:     make([][]uint64, sets),
		hitCounts:  make([][]int32, sets),
	}
	for s := 0; s < sets; s++ {
		p.stacks[s] = make([]uint64, 0, aThreshold)
		p.hitCounts[s] = make([]int32, aThreshold)
	}
	return p, nil
}

// MustProfiler is NewProfiler but panics on error.
func MustProfiler(geom addr.Geometry, aThreshold int) *Profiler {
	p, err := NewProfiler(geom, aThreshold)
	if err != nil {
		panic(err)
	}
	return p
}

// Accesses returns the number of accesses observed in the current interval.
func (p *Profiler) Accesses() int64 { return p.accesses }

// Touch records one access to address a: if a's tag is within the top
// A_threshold stack positions of its set, the hit depth (1-based) is recorded
// and the tag moves to MRU; otherwise the access is a (capacity-at-threshold
// or compulsory) miss and the tag is pushed at MRU, shifting the rest down.
// It returns the 1-based hit depth, or 0 for a miss beyond the threshold.
func (p *Profiler) Touch(a addr.Addr) int {
	s := p.geom.Index(a)
	tag := p.geom.Tag(a)
	stack := p.stacks[s]
	p.accesses++

	for i, t := range stack {
		if t == tag {
			// Move to front: shift [0,i) down one.
			copy(stack[1:i+1], stack[0:i])
			stack[0] = tag
			p.hitCounts[s][i]++
			return i + 1
		}
	}
	// Miss: push at MRU, dropping the LRU entry if the stack is full.
	if len(stack) < p.aThreshold {
		stack = append(stack, 0)
	}
	copy(stack[1:], stack[:len(stack)-1])
	stack[0] = tag
	p.stacks[s] = stack
	return 0
}

// HitCount returns hit_count(S, I, A): the number of hits set s would have
// seen during the current interval with associativity a (hits at depths
// <= a). a is clamped to [0, A_threshold].
func (p *Profiler) HitCount(s uint32, a int) int64 {
	if a < 0 {
		a = 0
	}
	if a > p.aThreshold {
		a = p.aThreshold
	}
	var sum int64
	hc := p.hitCounts[s]
	for d := 0; d < a; d++ {
		sum += int64(hc[d])
	}
	return sum
}

// BlockRequired returns block_required(S, I) per Formula (3): the minimum
// associativity A such that hit_count(S,I,A) == hit_count(S,I,A_threshold).
// A set with no hits at all requires 1 block (the range is [1, A_threshold],
// §2.1.2).
func (p *Profiler) BlockRequired(s uint32) int {
	hc := p.hitCounts[s]
	// Find the deepest position with a nonzero hit count; every A at or
	// beyond it satisfies the formula, so the minimum A is that depth.
	deepest := 0
	for d := p.aThreshold - 1; d >= 0; d-- {
		if hc[d] != 0 {
			deepest = d + 1
			break
		}
	}
	if deepest == 0 {
		return 1
	}
	return deepest
}

// IntervalResult is the characterization output for one sampling interval:
// the normalized size of each demand bucket (Formula 5).
type IntervalResult struct {
	BucketSizes   []float64 // length M, sums to 1
	MeanDemand    float64   // mean block_required over all sets
	TakerFraction float64   // fraction of sets with demand > baseline ways
}

// EndInterval computes the per-set block_required values, folds them into M
// equal-width buckets over [1, A_threshold] (Formulas 4–5), resets the
// per-interval hit counters, and returns the interval's characterization.
// Stacks persist across intervals, matching the paper's continuous
// profiling.
func (p *Profiler) EndInterval(m, baselineWays int) IntervalResult {
	h := stats.MustHistogram(p.aThreshold, m)
	sum := 0
	takers := 0
	for s := range p.hitCounts {
		br := p.BlockRequired(uint32(s))
		h.Observe(br)
		sum += br
		if br > baselineWays {
			takers++
		}
		for d := range p.hitCounts[s] {
			p.hitCounts[s][d] = 0
		}
	}
	p.accesses = 0
	sets := float64(len(p.hitCounts))
	return IntervalResult{
		BucketSizes:   h.Fractions(),
		MeanDemand:    float64(sum) / sets,
		TakerFraction: float64(takers) / sets,
	}
}

// Characterization accumulates interval results into per-bucket series — the
// series Figures 1–3 plot (x: sampling interval, y: stacked bucket sizes).
type Characterization struct {
	M          int
	Labels     []string
	BucketOver []stats.Series // one series per bucket, over intervals
	MeanDemand stats.Series
	TakerShare stats.Series
}

// NewCharacterization prepares an accumulator for M buckets over
// [1, aThreshold].
func NewCharacterization(aThreshold, m int) *Characterization {
	h := stats.MustHistogram(aThreshold, m)
	c := &Characterization{
		M:          m,
		Labels:     make([]string, m),
		BucketOver: make([]stats.Series, m),
	}
	for j := 0; j < m; j++ {
		c.Labels[j] = h.BucketLabel(j)
		c.BucketOver[j].Name = c.Labels[j]
	}
	c.MeanDemand.Name = "mean_demand"
	c.TakerShare.Name = "taker_fraction"
	return c
}

// Add folds one interval's result into the accumulated series.
func (c *Characterization) Add(r IntervalResult) {
	for j := 0; j < c.M; j++ {
		c.BucketOver[j].Append(r.BucketSizes[j])
	}
	c.MeanDemand.Append(r.MeanDemand)
	c.TakerShare.Append(r.TakerFraction)
}

// Intervals returns how many intervals have been accumulated.
func (c *Characterization) Intervals() int { return len(c.MeanDemand.Values) }

// MeanBucketSizes returns each bucket's average share across all intervals.
func (c *Characterization) MeanBucketSizes() []float64 {
	out := make([]float64, c.M)
	for j := 0; j < c.M; j++ {
		out[j] = c.BucketOver[j].MeanValue()
	}
	return out
}
