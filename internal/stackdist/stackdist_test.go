package stackdist

import (
	"testing"
	"testing/quick"

	"snug/internal/addr"
)

func prof(t *testing.T, sets, depth int) (*Profiler, addr.Geometry) {
	t.Helper()
	g := addr.MustGeometry(64, sets)
	return MustProfiler(g, depth), g
}

func TestTouchDepths(t *testing.T) {
	p, g := prof(t, 4, 8)
	a := func(tag uint64) addr.Addr { return g.Rebuild(tag, 1) }
	if d := p.Touch(a(1)); d != 0 {
		t.Fatalf("first touch depth %d, want 0 (miss)", d)
	}
	if d := p.Touch(a(1)); d != 1 {
		t.Fatalf("immediate re-touch depth %d, want 1 (MRU)", d)
	}
	p.Touch(a(2))
	p.Touch(a(3))
	if d := p.Touch(a(1)); d != 3 {
		t.Fatalf("depth %d, want 3 (two blocks touched since)", d)
	}
}

func TestStackCapacity(t *testing.T) {
	p, g := prof(t, 2, 4)
	for tag := uint64(1); tag <= 5; tag++ {
		p.Touch(g.Rebuild(tag, 0))
	}
	// Tag 1 fell off the 4-deep stack.
	if d := p.Touch(g.Rebuild(1, 0)); d != 0 {
		t.Fatalf("evicted tag hit at depth %d", d)
	}
}

func TestHitCountMonotonicInA(t *testing.T) {
	// hit_count(S, I, A) is non-decreasing in A — the stack property the
	// paper's Formula (1) rests on. Exercise with a random stream.
	f := func(raw []uint8) bool {
		p, g := prof(t, 2, 16)
		for _, r := range raw {
			p.Touch(g.Rebuild(uint64(r%24), uint32(r)%2))
		}
		for s := uint32(0); s < 2; s++ {
			prev := int64(0)
			for a := 0; a <= 16; a++ {
				hc := p.HitCount(s, a)
				if hc < prev {
					return false
				}
				prev = hc
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRequiredFormula3(t *testing.T) {
	p, g := prof(t, 2, 16)
	// Cyclic MRU-biased touches over 5 distinct blocks: deepest hit depth
	// is 5, so block_required = 5.
	for round := 0; round < 6; round++ {
		for tag := uint64(1); tag <= 5; tag++ {
			p.Touch(g.Rebuild(tag, 0))
		}
	}
	if br := p.BlockRequired(0); br != 5 {
		t.Fatalf("block_required = %d, want 5", br)
	}
	// An untouched set requires 1 block by definition (§2.1.2).
	if br := p.BlockRequired(1); br != 1 {
		t.Fatalf("untouched set block_required = %d, want 1", br)
	}
}

func TestEndIntervalBuckets(t *testing.T) {
	p, g := prof(t, 4, 32)
	// Set 0: demand 3 (bucket 1~4); set 1: demand 20 (bucket 17~20);
	// sets 2,3 untouched (demand 1).
	for round := 0; round < 4; round++ {
		for tag := uint64(1); tag <= 3; tag++ {
			p.Touch(g.Rebuild(tag, 0))
		}
		for tag := uint64(1); tag <= 20; tag++ {
			p.Touch(g.Rebuild(tag, 1))
		}
	}
	r := p.EndInterval(8, 16)
	if r.BucketSizes[0] != 0.75 { // sets 0, 2, 3
		t.Fatalf("bucket 1~4 share = %v, want 0.75", r.BucketSizes[0])
	}
	if r.BucketSizes[4] != 0.25 { // set 1 at depth 20
		t.Fatalf("bucket 17~20 share = %v, want 0.25", r.BucketSizes[4])
	}
	if r.TakerFraction != 0.25 {
		t.Fatalf("taker fraction = %v, want 0.25 (only set 1 exceeds 16 ways)", r.TakerFraction)
	}
	// Counters reset for the next interval; stacks persist.
	if p.HitCount(0, 32) != 0 {
		t.Fatal("hit counters not reset at interval end")
	}
	if d := p.Touch(g.Rebuild(1, 0)); d == 0 {
		t.Fatal("stack content lost at interval end")
	}
}

func TestCharacterizationAccumulation(t *testing.T) {
	c := NewCharacterization(32, 8)
	if c.Labels[0] != "1~4" || c.Labels[7] != ">=29" {
		t.Fatalf("labels %v", c.Labels)
	}
	r := IntervalResult{BucketSizes: []float64{1, 0, 0, 0, 0, 0, 0, 0}, MeanDemand: 2, TakerFraction: 0}
	c.Add(r)
	r2 := IntervalResult{BucketSizes: []float64{0, 1, 0, 0, 0, 0, 0, 0}, MeanDemand: 6, TakerFraction: 0}
	c.Add(r2)
	if c.Intervals() != 2 {
		t.Fatalf("Intervals = %d", c.Intervals())
	}
	mb := c.MeanBucketSizes()
	if mb[0] != 0.5 || mb[1] != 0.5 {
		t.Fatalf("mean bucket sizes %v", mb)
	}
	if w0, w1 := c.BucketOver[0].WindowMean(1, 2), c.BucketOver[1].WindowMean(1, 2); w0 != 0 || w1 != 1 {
		t.Fatalf("window bucket sizes %v, %v", w0, w1)
	}
}

func TestProfilerRejectsBadThreshold(t *testing.T) {
	g := addr.MustGeometry(64, 4)
	if _, err := NewProfiler(g, 0); err == nil {
		t.Fatal("A_threshold=0 accepted")
	}
}
