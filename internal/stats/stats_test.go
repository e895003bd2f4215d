package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	// The paper's configuration: A_threshold = 32, M = 8 buckets.
	h := MustHistogram(32, 8)
	for v := 1; v <= 32; v++ {
		h.Observe(v)
	}
	for i, b := range h.Buckets() {
		if b != 4 {
			t.Errorf("bucket %d = %d, want 4", i, b)
		}
	}
	if h.Total() != 32 {
		t.Errorf("Total = %d", h.Total())
	}
	fr := h.Fractions()
	for i, f := range fr {
		if math.Abs(f-0.125) > 1e-12 {
			t.Errorf("fraction %d = %v, want 0.125", i, f)
		}
	}
}

func TestHistogramClamping(t *testing.T) {
	h := MustHistogram(32, 8)
	h.Observe(0)   // clamps to 1
	h.Observe(-5)  // clamps to 1
	h.Observe(100) // clamps to 32
	b := h.Buckets()
	if b[0] != 2 || b[7] != 1 {
		t.Fatalf("buckets = %v, want first=2 last=1", b)
	}
}

func TestHistogramLabels(t *testing.T) {
	h := MustHistogram(32, 8)
	if got := h.BucketLabel(0); got != "1~4" {
		t.Errorf("label 0 = %q", got)
	}
	if got := h.BucketLabel(7); got != ">=29" {
		t.Errorf("label 7 = %q, want >=29 (Figure 1 legend)", got)
	}
}

func TestHistogramRejectsUnevenShape(t *testing.T) {
	if _, err := NewHistogram(30, 8); err == nil {
		t.Fatal("30/8 histogram accepted; buckets must divide the range")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

func TestMeansOrderingProperty(t *testing.T) {
	// geometric <= arithmetic for positive inputs.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r%1000) + 1
		}
		const eps = 1e-9
		return GeoMean(xs) <= Mean(xs)+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesWindows(t *testing.T) {
	s := Series{Name: "x"}
	for i := 1; i <= 10; i++ {
		s.Append(float64(i))
	}
	if got := s.MeanValue(); got != 5.5 {
		t.Errorf("MeanValue = %v", got)
	}
	if got := s.WindowMean(0, 5); got != 3 {
		t.Errorf("WindowMean(0,5) = %v", got)
	}
	if got := s.WindowMean(8, 100); got != 9.5 {
		t.Errorf("WindowMean clamped = %v", got)
	}
	if got := s.WindowMean(5, 5); got != 0 {
		t.Errorf("empty window = %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(7).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(11)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Intn(8)]++
	}
	for i, c := range counts {
		if c < n/8-n/80 || c > n/8+n/80 {
			t.Errorf("bucket %d count %d deviates >10%% from uniform", i, c)
		}
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42) != Mix64(42) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(42) == Mix64(43) {
		t.Fatal("Mix64 collision on adjacent inputs")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev(nil); got != 0 {
		t.Errorf("StdDev(nil) = %v, want 0", got)
	}
	if got := StdDev([]float64{7}); got != 0 {
		t.Errorf("StdDev of one sample = %v, want 0", got)
	}
	// {1,2,3,4}: sample variance 5/3.
	if got, want := StdDev([]float64{1, 2, 3, 4}), math.Sqrt(5.0/3); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if got := StdDev([]float64{2, 2, 2}); got != 0 {
		t.Errorf("StdDev of constants = %v, want 0", got)
	}
}

func TestTCritical95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 4: 2.776, 30: 2.042, 31: 1.960, 1000: 1.960}
	for df, want := range cases {
		if got := TCritical95(df); got != want {
			t.Errorf("TCritical95(%d) = %v, want %v", df, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TCritical95(0) did not panic")
		}
	}()
	TCritical95(0)
}

func TestMeanCI(t *testing.T) {
	iv := MeanCI([]float64{2.5})
	if iv.Mean != 2.5 || iv.Half != 0 || iv.N != 1 {
		t.Errorf("single-sample interval %+v, want point estimate", iv)
	}
	// {1,2,3}: mean 2, sample sd 1, half-width t(2) / sqrt(3).
	iv = MeanCI([]float64{1, 2, 3})
	want := 4.303 / math.Sqrt(3)
	if iv.Mean != 2 || math.Abs(iv.Half-want) > 1e-12 || iv.N != 3 {
		t.Errorf("interval %+v, want mean 2 half %v", iv, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("MeanCI(nil) did not panic")
		}
	}()
	MeanCI(nil)
}

func TestIntervalString(t *testing.T) {
	if got := (Interval{Mean: 0.982, Half: 0.013, N: 5}).String(); got != "0.982 ±0.013" {
		t.Errorf("Interval.String() = %q", got)
	}
	if got := (Interval{Mean: 0.982, N: 1}).String(); got != "0.982" {
		t.Errorf("single-sample Interval.String() = %q", got)
	}
}

func TestPairedDelta(t *testing.T) {
	// A constant pairwise gap has zero spread regardless of the common noise.
	iv, err := PairedDelta([]float64{1.1, 2.1, 3.1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv.Mean-0.1) > 1e-12 || iv.Half > 1e-9 {
		t.Errorf("paired delta %+v, want mean 0.1 half ~0", iv)
	}
	if _, err := PairedDelta([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := PairedDelta(nil, nil); err == nil {
		t.Error("empty samples accepted")
	}
}
