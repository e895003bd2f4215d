// Package stats provides the histogramming and aggregation primitives used
// throughout the simulator: fixed-bucket histograms and interval series for
// the paper's characterization experiments (Figures 1–3), the geometric
// mean of the per-class results, the confidence intervals of the replicated
// figures, and the deterministic RNG and hashes behind every seed.
package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width bucket histogram over the integer range
// [1, max]. Values below 1 clamp to the first bucket; values above max clamp
// to the last. It implements the paper's bucketization of block_required
// values into M equal sub-ranges of [1, A_threshold] (Formula 4/5).
type Histogram struct {
	max     int
	buckets []int64
	total   int64
}

// NewHistogram builds a histogram over [1, max] with bucket count buckets.
// max must be divisible by buckets so all buckets have equal width, mirroring
// the paper's restriction that A_threshold and M are powers of two.
func NewHistogram(max, buckets int) (*Histogram, error) {
	if max <= 0 || buckets <= 0 || max%buckets != 0 {
		return nil, fmt.Errorf("stats: invalid histogram shape max=%d buckets=%d", max, buckets)
	}
	return &Histogram{max: max, buckets: make([]int64, buckets)}, nil
}

// MustHistogram is NewHistogram but panics on error.
func MustHistogram(max, buckets int) *Histogram {
	h, err := NewHistogram(max, buckets)
	if err != nil {
		panic(err)
	}
	return h
}

// Observe records one occurrence of value v.
func (h *Histogram) Observe(v int) {
	if v < 1 {
		v = 1
	}
	if v > h.max {
		v = h.max
	}
	width := h.max / len(h.buckets)
	h.buckets[(v-1)/width]++
	h.total++
}

// Fractions returns each bucket's share of the total, or all zeros when
// empty. This is size_bucket_j(I) of Formula (5) when one observation is
// recorded per set.
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.buckets))
	if h.total == 0 {
		return out
	}
	for i, b := range h.buckets {
		out[i] = float64(b) / float64(h.total)
	}
	return out
}

// BucketLabel formats the value range of bucket i, e.g. "1~4" or ">=29".
func (h *Histogram) BucketLabel(i int) string {
	width := h.max / len(h.buckets)
	lo := i*width + 1
	if i == len(h.buckets)-1 {
		return fmt.Sprintf(">=%d", lo)
	}
	return fmt.Sprintf("%d~%d", lo, (i+1)*width)
}

// GeoMean returns the geometric mean of xs. It panics on non-positive
// inputs and returns 0 for an empty slice. The paper reports per-class
// results as geometric means over the combos in the class.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (the n-1 "Bessel"
// denominator, matching the Student-t interval below); 0 for fewer than two
// samples.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// tCrit95 holds the two-sided 95% Student-t critical values for 1..30
// degrees of freedom; beyond the table the normal approximation (1.960) is
// within 4% and monotonically approached.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (the normal 1.960 beyond the tabulated range). It
// panics on df < 1.
func TCritical95(df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: TCritical95 with df=%d", df))
	}
	if df <= len(tCrit95) {
		return tCrit95[df-1]
	}
	return 1.960
}

// Interval is a mean with a symmetric 95% confidence half-width: the
// population mean lies in [Mean-Half, Mean+Half] at 95% confidence under
// the Student-t model. Half is 0 for single-sample input, where the mean
// is a point estimate with no spread information.
type Interval struct {
	Mean float64
	Half float64
	N    int // sample count behind the interval
}

// String renders the interval as the reports print it, e.g. "0.982 ±0.013".
func (iv Interval) String() string {
	if iv.N < 2 {
		return fmt.Sprintf("%.3f", iv.Mean)
	}
	return fmt.Sprintf("%.3f ±%.3f", iv.Mean, iv.Half)
}

// MeanCI returns the Student-t 95% confidence interval of the mean of xs.
// It panics on empty input — an interval over nothing is a caller bug, not
// a zero.
func MeanCI(xs []float64) Interval {
	if len(xs) == 0 {
		panic("stats: MeanCI of empty sample")
	}
	iv := Interval{Mean: Mean(xs), N: len(xs)}
	if iv.N < 2 {
		return iv
	}
	iv.Half = TCritical95(iv.N-1) * StdDev(xs) / math.Sqrt(float64(iv.N))
	return iv
}

// PairedDelta summarizes the paired differences a[i]-b[i] as a mean with a
// 95% confidence interval — the right summary for two schemes replicated
// over the same instruction streams, where per-replicate deltas cancel the
// shared stream noise. The slices must be equal-length and non-empty.
func PairedDelta(a, b []float64) (Interval, error) {
	if len(a) != len(b) {
		return Interval{}, fmt.Errorf("stats: paired samples of different length %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return Interval{}, fmt.Errorf("stats: paired delta of empty samples")
	}
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return MeanCI(d), nil
}

// Series is a named sequence of sampled values, one per interval — the unit
// Figures 1–3 plot (one series per bucket over 1000 sampling intervals).
type Series struct {
	Name   string
	Values []float64
}

// Append adds a sample.
func (s *Series) Append(v float64) { s.Values = append(s.Values, v) }

// MeanValue returns the mean of the series (0 if empty).
func (s *Series) MeanValue() float64 { return Mean(s.Values) }

// WindowMean returns the mean over the half-open interval [from, to) of
// sample indices, clamped to the available range; 0 if the window is empty.
func (s *Series) WindowMean(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s.Values) {
		to = len(s.Values)
	}
	if from >= to {
		return 0
	}
	return Mean(s.Values[from:to])
}
