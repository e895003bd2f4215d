package core

import (
	"testing"
	"testing/quick"

	"snug/internal/addr"
	"snug/internal/cache"
)

func TestSatCounterInitAndThreshold(t *testing.T) {
	c := MustSatCounter(4, 8)
	if c.Value() != 7 {
		t.Fatalf("init value %d, want 2^(k-1)-1 = 7 (Figure 7)", c.Value())
	}
	if c.Taker() {
		t.Fatal("fresh counter already signals taker")
	}
	c.ShadowHit()
	if !c.Taker() {
		t.Fatal("one net shadow hit must set the MSB (7+1 = 8)")
	}
}

func TestSatCounterSaturation(t *testing.T) {
	c := MustSatCounter(4, 8)
	for i := 0; i < 100; i++ {
		c.ShadowHit()
	}
	if c.Value() != 15 {
		t.Fatalf("value %d, want saturation at 15", c.Value())
	}
	// 100 shadow hits also produced 100/8 = 12 decrements along the way;
	// saturation must still hold afterwards.
	for i := 0; i < 200; i++ {
		c.RealHit()
	}
	if c.Value() != 0 {
		t.Fatalf("value %d, want floor at 0 after heavy real-hit decrements", c.Value())
	}
	c.RealHit()
	if c.Value() != 0 {
		t.Fatal("counter went below zero")
	}
}

func TestSatCounterSigmaThreshold(t *testing.T) {
	// σ > 1/p ⟺ counter drifts up. With p=8: 2 shadow hits out of 9 total
	// hits (σ=0.22 > 1/8) must classify taker; 1 of 17 (σ=0.06 < 1/8) must
	// not.
	up := MustSatCounter(4, 8)
	up.ShadowHit()
	up.ShadowHit()
	for i := 0; i < 7; i++ {
		up.RealHit()
	}
	if !up.Taker() {
		t.Fatalf("σ=2/9 > 1/8 not classified taker (value %d)", up.Value())
	}
	down := MustSatCounter(4, 8)
	down.ShadowHit()
	for i := 0; i < 16; i++ {
		down.RealHit()
	}
	if down.Taker() {
		t.Fatalf("σ=1/17 < 1/8 classified taker (value %d)", down.Value())
	}
}

func TestSatCounterRejectsBadParams(t *testing.T) {
	if _, err := NewSatCounter(1, 8); err == nil {
		t.Error("1-bit counter accepted")
	}
	if _, err := NewSatCounter(16, 8); err == nil {
		t.Error("16-bit counter accepted (max is 15)")
	}
	if _, err := NewSatCounter(4, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestGTVectorBasics(t *testing.T) {
	v := MustGTVector(130) // spans three words
	if len(v.bits) != 3 {
		t.Fatalf("%d words for 130 sets, want 3", len(v.bits))
	}
	for _, s := range []uint32{0, 63, 64, 129} {
		if v.Taker(s) {
			t.Fatalf("set %d taker before any Set", s)
		}
		v.Set(s, true)
		if !v.Taker(s) || v.Giver(s) {
			t.Fatalf("set %d not taker after Set", s)
		}
	}
	if v.TakerCount() != 4 {
		t.Fatalf("TakerCount = %d", v.TakerCount())
	}
	v.Set(64, false)
	if v.Taker(64) || v.TakerCount() != 3 {
		t.Fatal("clearing failed")
	}
}

func TestGTVectorSetIdempotentProperty(t *testing.T) {
	v := MustGTVector(256)
	f := func(s uint16, taker bool) bool {
		idx := uint32(s) % 256
		v.Set(idx, taker)
		v.Set(idx, taker)
		return v.Taker(idx) == taker
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifySpillCases(t *testing.T) {
	gt := MustGTVector(8)
	// Case 1: same index is giver.
	if set, f, ok := Place(gt, 4, true); !ok || set != 4 || f {
		t.Fatalf("case1 placement %d %v %v", set, f, ok)
	}
	// Case 2: same index taker, flipped giver.
	gt.Set(4, true)
	if set, f, ok := Place(gt, 4, true); !ok || set != 5 || !f {
		t.Fatalf("case2 placement %d %v %v", set, f, ok)
	}
	// Case 3: both takers.
	gt.Set(5, true)
	if _, _, ok := Place(gt, 4, true); ok {
		t.Fatal("case3 placed the block")
	}
	// Flip disabled: case 2 degenerates to case 3.
	gt.Set(5, false)
	if _, _, ok := Place(gt, 4, false); ok {
		t.Fatal("no-flip placement used the flipped set")
	}
}

func TestReachable(t *testing.T) {
	gt := MustGTVector(4)
	// Block at its own index (giver): reachable.
	if !Reachable(gt, 2, false, true) {
		t.Error("same-index block in giver set unreachable")
	}
	// Flipped block at 3 (original 2): reachable only when set 2 is taker
	// and 3 is giver.
	if Reachable(gt, 3, true, true) {
		t.Error("flipped block reachable although same-index search wins")
	}
	gt.Set(2, true)
	if !Reachable(gt, 3, true, true) {
		t.Error("flipped block unreachable in its intended configuration")
	}
	gt.Set(3, true)
	if Reachable(gt, 3, true, true) {
		t.Error("block in taker set still reachable")
	}
}

func testMonitor(t *testing.T) (*Monitor, addr.Geometry) {
	t.Helper()
	g := addr.MustGeometry(64, 16)
	return NewMonitor(g, 4, 4, 8), g
}

func TestMonitorShadowHitTrainsCounter(t *testing.T) {
	m, g := testMonitor(t)
	a := g.Rebuild(42, 3)
	m.OnLocalEvict(3, g.Tag(a))
	if !m.OnMissCheck(a) {
		t.Fatal("shadow missed a just-evicted tag")
	}
	if !m.Counter(3).Taker() {
		t.Fatal("shadow hit did not push counter over the MSB")
	}
	// Exclusivity: the entry must be gone.
	if m.OnMissCheck(a) {
		t.Fatal("shadow entry survived its own hit")
	}
	if m.Stats().ShadowHits != 1 {
		t.Fatalf("ShadowHits = %d", m.Stats().ShadowHits)
	}
}

func TestMonitorShadowLRUDepth(t *testing.T) {
	m, g := testMonitor(t)
	// Shadow is 4-way here: evicting 5 tags pushes the first one out.
	for tag := uint64(1); tag <= 5; tag++ {
		m.OnLocalEvict(0, tag)
	}
	if m.OnMissCheck(g.Rebuild(1, 0)) {
		t.Fatal("oldest shadow entry should have been displaced")
	}
	if !m.OnMissCheck(g.Rebuild(5, 0)) {
		t.Fatal("newest shadow entry missing")
	}
}

func TestMonitorLatch(t *testing.T) {
	m, g := testMonitor(t)
	a := g.Rebuild(9, 2)
	m.OnLocalEvict(2, g.Tag(a))
	m.OnMissCheck(a)
	if m.GT().Taker(2) {
		t.Fatal("G/T vector updated before Latch")
	}
	if takers := m.Latch(); takers != 1 {
		t.Fatalf("Latch latched %d takers, want 1", takers)
	}
	if !m.GT().Taker(2) {
		t.Fatal("taker not latched")
	}
	// Counters persist across latches (initialized once, Figure 7).
	if !m.Counter(2).Taker() {
		t.Fatal("counter reset by Latch; the paper initializes once")
	}
}

// Ensure the shadow reuses the cache package faithfully: a shadow array is
// a tag-only cache.Cache and must never report dirty or CC state.
func TestMonitorShadowIsTagOnly(t *testing.T) {
	m, _ := testMonitor(t)
	m.OnLocalEvict(0, 3)
	// A predicate that never drops is a read-only walk of the set.
	seen := 0
	m.shadow.DropWhere(0, func(b cache.Block) bool {
		seen++
		if b.Dirty || b.CC || b.F {
			t.Fatalf("shadow entry carries data-array state: %+v", b)
		}
		return false
	})
	if seen != 1 {
		t.Fatalf("shadow set holds %d entries, want 1", seen)
	}
}
