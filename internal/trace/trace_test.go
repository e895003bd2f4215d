package trace

import (
	"math"
	"testing"

	"snug/internal/addr"
	"snug/internal/isa"
	"snug/internal/stats"
)

var testGeom = addr.MustGeometry(64, 64)

func TestRegistryCompleteness(t *testing.T) {
	// Table 6's twelve evaluation benchmarks plus applu for Figure 3.
	want := map[string]Class{
		"ammp": ClassA, "parser": ClassA, "vortex": ClassA,
		"apsi": ClassB, "gcc": ClassB,
		"vpr": ClassC, "art": ClassC, "mcf": ClassC, "bzip2": ClassC,
		"gzip": ClassD, "swim": ClassD, "mesa": ClassD,
		"applu": ClassChar,
	}
	if len(Names()) != len(want) {
		t.Fatalf("registry has %d models, want %d: %v", len(Names()), len(want), Names())
	}
	for name, class := range want {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		if p.Class != class {
			t.Errorf("%s class %s, want %s", name, p.Class, class)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestTable6CapacityClasses(t *testing.T) {
	// Class A/C demand > 1 MB (mean > 16 ways/set); class B/D below.
	for _, name := range Names() {
		p := MustByName(name)
		ways := meanDemandWays(p)
		switch p.Class {
		case ClassA, ClassC:
			if ways <= 16 {
				t.Errorf("%s (class %s): mean demand %.1f ways, want > 16 (1 MB)", name, p.Class, ways)
			}
		case ClassB, ClassD:
			if ways >= 16 {
				t.Errorf("%s (class %s): mean demand %.1f ways, want < 16", name, p.Class, ways)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p := MustByName("ammp")
	g1 := MustGenerator(p, testGeom, 42, 10_000)
	g2 := MustGenerator(p, testGeom, 42, 10_000)
	var a, b isa.Instr
	for i := 0; i < 20_000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a != b {
			t.Fatalf("instruction %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	p := MustByName("ammp")
	g1 := MustGenerator(p, testGeom, 1, 10_000)
	g2 := MustGenerator(p, testGeom, 2, 10_000)
	var a, b isa.Instr
	same := 0
	for i := 0; i < 1000; i++ {
		g1.Next(&a)
		g2.Next(&b)
		if a == b {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestDemandMapSharedAcrossInstances(t *testing.T) {
	p := MustByName("ammp")
	g1 := MustGenerator(p, testGeom, 1, 10_000)
	g2 := MustGenerator(p, testGeom, 99, 10_000)
	// Without salts, instances agree on every set's demand depth.
	for s := uint32(0); s < uint32(testGeom.Sets()); s++ {
		if g1.depths[s] != g2.depths[s] {
			t.Fatalf("set %d depth differs across unsalted instances", s)
		}
	}
	// With distinct salts the maps partially decorrelate but keep the
	// distribution (the correlated anchor fraction stays equal).
	g2.WithDemandSalt(7)
	differ := 0
	for s := uint32(0); s < uint32(testGeom.Sets()); s++ {
		if g1.depths[s] != g2.depths[s] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("salt changed nothing")
	}
	if differ == testGeom.Sets() {
		t.Fatal("salt decorrelated every set; expected partial (page-level) correlation")
	}
}

// TestWithDemandSaltAfterNextPanics: a generator synthesizes ahead of
// Next, so a salt set after the first Next would re-map demand under
// instructions already synthesized; the call must panic instead.
func TestWithDemandSaltAfterNextPanics(t *testing.T) {
	g := MustGenerator(MustByName("ammp"), testGeom, 1, 10_000).WithDemandSalt(3)
	var in isa.Instr
	g.Next(&in)
	defer func() {
		if recover() == nil {
			t.Fatal("WithDemandSalt after the first Next did not panic")
		}
	}()
	g.WithDemandSalt(4)
}

// TestBandDepthPastTheBandSum: apsi's phase-0 band fractions sum to
// 1-2⁻⁵³ in float64, which is also the largest set draw f, so at that f no
// cumulative fraction exceeds the draw. The set must take a depth from the
// last band, not a depth of 1.
func TestBandDepthPastTheBandSum(t *testing.T) {
	bands := MustByName("apsi").Phases[0].Bands
	const f = 1 - 0x1p-53
	sum := 0.0
	for _, b := range bands {
		sum += b.Frac
	}
	if sum != f {
		t.Fatalf("apsi's phase-0 band fractions sum to %v, want 1-2⁻⁵³", sum)
	}
	first, last := bands[0], bands[len(bands)-1]
	for h := uint64(0); h < 64; h++ {
		if d := bandDepth(bands, f, h); d < last.MinDepth || d > last.MaxDepth {
			t.Errorf("f=1-2⁻⁵³, h=%d: depth %d, want one of the last band's [%d,%d]", h, d, last.MinDepth, last.MaxDepth)
		}
		if d := bandDepth(bands, 0, h); d < first.MinDepth || d > first.MaxDepth {
			t.Errorf("f=0, h=%d: depth %d, want one of the first band's [%d,%d]", h, d, first.MinDepth, first.MaxDepth)
		}
	}
}

func TestAmmpDemandDistributionMatchesFigure1(t *testing.T) {
	// Figure 1: ~40% of ammp's sets demand 1-4 blocks; ~half are deep
	// takers. Check the assigned map against the profile's bands.
	g := MustGenerator(MustByName("ammp"), addr.MustGeometry(64, 1024), 3, 10_000)
	shallow, deep := 0, 0
	for s := uint32(0); s < 1024; s++ {
		d := int(g.depths[s])
		if d <= 4 {
			shallow++
		}
		if d > 32 {
			deep++
		}
	}
	if f := float64(shallow) / 1024; f < 0.33 || f > 0.47 {
		t.Errorf("ammp shallow-set fraction %.2f, want ~0.40", f)
	}
	if f := float64(deep) / 1024; f < 0.42 || f > 0.58 {
		t.Errorf("ammp deep-set fraction %.2f, want ~0.50", f)
	}
}

func TestVortexPhases(t *testing.T) {
	p := MustByName("vortex")
	if len(p.Phases) != 3 {
		t.Fatalf("vortex has %d phases, want 3 (Figure 2)", len(p.Phases))
	}
	g := MustGenerator(p, testGeom, 5, 2_000)
	var in isa.Instr
	seen := map[int]bool{g.phaseIdx: true}
	for i := 0; i < 2_000_000 && len(seen) < 3; i++ {
		g.Next(&in)
		seen[g.phaseIdx] = true
	}
	if len(seen) != 3 {
		t.Fatalf("only phases %v visited", seen)
	}
}

func TestStreamComposition(t *testing.T) {
	p := MustByName("parser")
	g := MustGenerator(p, testGeom, 9, 100_000)
	var in isa.Instr
	var counts [isa.NumKinds]int
	const n = 200_000
	for i := 0; i < n; i++ {
		g.Next(&in)
		counts[in.Kind]++
		if in.Kind == isa.KindLoad || in.Kind == isa.KindStore {
			if testGeom.Index(in.Addr) >= uint32(testGeom.Sets()) {
				t.Fatal("access outside geometry")
			}
		}
	}
	mem := counts[isa.KindLoad] + counts[isa.KindStore]
	if mem == 0 || counts[isa.KindBranch] == 0 || counts[isa.KindALU] == 0 {
		t.Fatalf("degenerate mix: %v", counts)
	}
	memFrac := float64(mem) / n
	if memFrac < 0.05 || memFrac > 0.5 {
		t.Errorf("memory fraction %.2f implausible", memFrac)
	}
	storeFrac := float64(counts[isa.KindStore]) / float64(mem)
	if storeFrac < 0.01 || storeFrac > 0.2 {
		t.Errorf("store fraction %.2f; stores are per touch, expect well below StoreFrac=%.2f",
			storeFrac, p.StoreFrac)
	}
	if counts[isa.KindCall] != counts[isa.KindReturn] {
		t.Errorf("calls %d != returns %d", counts[isa.KindCall], counts[isa.KindReturn])
	}
}

func TestTouchPoolStackDistances(t *testing.T) {
	// With decay ρ, small stack distances dominate but the full depth is
	// exercised — the property block_required measurement relies on.
	p := MustByName("mcf") // deep uniform sets
	g := MustGenerator(p, testGeom, 11, 100_000)
	d := int(g.depths[0])
	if d < 32 {
		t.Fatalf("mcf depth %d, want deep", d)
	}
	seen := map[int]bool{}
	for i := 0; i < 20_000; i++ {
		var slot int
		g.rng, slot = g.touchPool(g.rng, 0)
		seen[slot] = true
	}
	if len(seen) < d*3/4 {
		t.Errorf("only %d/%d pool slots touched; tail never exercised", len(seen), d)
	}
}

func TestRecencyPermutationInvariant(t *testing.T) {
	g := MustGenerator(MustByName("vortex"), testGeom, 13, 1_000)
	var in isa.Instr
	for i := 0; i < 300_000; i++ { // cycles through phases repeatedly
		g.Next(&in)
	}
	for s := range g.recency {
		seen := map[uint8]bool{}
		for _, id := range g.recency[s] {
			if int(id) >= len(g.recency[s]) {
				t.Fatalf("set %d: slot id %d out of range %d", s, id, len(g.recency[s]))
			}
			if seen[id] {
				t.Fatalf("set %d: duplicate slot id %d", s, id)
			}
			seen[id] = true
		}
		if len(g.recency[s]) != int(g.depths[s]) {
			t.Fatalf("set %d: recency length %d != depth %d", s, len(g.recency[s]), g.depths[s])
		}
	}
}

// streamDigests pins the first 500k instructions of every registered
// profile, built as cmp.WorkloadStreams builds core 0's stream at the
// default seed. The table is fixed: a hash that moves means a synthesized
// stream changed, so fix the generator rather than re-record the table.
var streamDigests = map[string]uint64{
	"ammp":   0xff37e22210e91823,
	"applu":  0x79347e88439d6eaf,
	"apsi":   0x27ad2642223dfe44,
	"art":    0x24933f385e365c9b,
	"bzip2":  0xc93ce87bb141f297,
	"gcc":    0x254e43f96cd063c2,
	"gzip":   0xd6f3389fd45eb880,
	"mcf":    0x3671d700f305dfee,
	"mesa":   0xc45a1422f5842b43,
	"parser": 0x84bd7205343b4bb9,
	"swim":   0x684acb2a66b2f89a,
	"vortex": 0x96f7e2ff5587a480,
	"vpr":    0x3a12df4cc2aa97b8,
}

// TestStreamDigests hashes every field of each profile's stream. The phase
// rotation is short (1,000 touches) so vortex crosses its phase boundaries
// dozens of times within the window.
func TestStreamDigests(t *testing.T) {
	const n = 500_000
	for _, name := range Names() {
		g := MustGenerator(MustByName(name), testGeom, 0x5eed_c0de, 1_000).WithDemandSalt(1)
		var in isa.Instr
		h := uint64(0xcbf29ce484222325)
		phase, crossings := g.phaseIdx, 0
		for i := 0; i < n; i++ {
			g.Next(&in)
			h = mixInstr(h, &in)
			if p := g.phaseIdx; p != phase {
				phase = p
				crossings++
			}
		}
		if want, ok := streamDigests[name]; !ok || h != want {
			t.Errorf("%s: stream digest %#016x, want %#016x", name, h, want)
		}
		if len(g.prof.Phases) > 1 && crossings < 10 {
			t.Errorf("%s crossed %d phase boundaries, want >= 10", name, crossings)
		}
	}
}

// mixInstr folds every field of in into the running hash h.
func mixInstr(h uint64, in *isa.Instr) uint64 {
	flags := uint64(in.Kind)
	if in.Taken {
		flags |= 1 << 8
	}
	if in.DepPrev {
		flags |= 1 << 9
	}
	for _, v := range [...]uint64{flags, in.PC, uint64(in.Addr), in.Target} {
		h = stats.Mix64(h ^ v)
	}
	return h
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := MustByName("ammp")
	deep := []Phase{{FracOfRun: 1, Bands: []DemandBand{{Frac: 1, MinDepth: 200, MaxDepth: 300}}}}
	for _, c := range []struct {
		name string
		edit func(p *Profile)
	}{
		{"phase fractions not summing to 1", func(p *Profile) {
			p.Phases = []Phase{{FracOfRun: 0.5, Bands: base.Phases[0].Bands}}
		}},
		{"band fractions not summing to 1", func(p *Profile) {
			p.Phases = []Phase{{FracOfRun: 1, Bands: []DemandBand{{Frac: 0.5, MinDepth: 1, MaxDepth: 4}}}}
		}},
		{"L2Every 0", func(p *Profile) { p.L2Every = 0 }},
		{"band depth 300", func(p *Profile) { p.Phases = deep }},
		{"BranchEvery 0", func(p *Profile) { p.BranchEvery = 0 }},
		{"BranchEvery -5", func(p *Profile) { p.BranchEvery = -5 }},
		{"Burst -1", func(p *Profile) { p.Burst = -1 }},
		{"Burst NaN", func(p *Profile) { p.Burst = math.NaN() }},
		{"StoreFrac 1.5", func(p *Profile) { p.StoreFrac = 1.5 }},
		{"DepFrac -1", func(p *Profile) { p.DepFrac = -1 }},
		{"DepLoadFrac 2", func(p *Profile) { p.DepLoadFrac = 2 }},
		{"BranchBias NaN", func(p *Profile) { p.BranchBias = math.NaN() }},
		{"HardBranchFrac -0.1", func(p *Profile) { p.HardBranchFrac = -0.1 }},
		{"FPFrac 1.2", func(p *Profile) { p.FPFrac = 1.2 }},
		{"MultFrac -0.01", func(p *Profile) { p.MultFrac = -0.01 }},
		{"DivFrac NaN", func(p *Profile) { p.DivFrac = math.NaN() }},
		{"FPFrac 0.7 with MultFrac 0.5", func(p *Profile) { p.FPFrac, p.MultFrac = 0.7, 0.5 }},
		{"compulsory rate NaN", func(p *Profile) {
			p.Phases = []Phase{{FracOfRun: 1, Bands: base.Phases[0].Bands, Compulsory: math.NaN()}}
		}},
	} {
		bad := base
		c.edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := ByName("quake3"); err == nil {
		t.Error("unknown benchmark accepted")
	}

	// Slot ids are uint8: a 300-deep band used to pass Validate and then
	// panic in enterPhase. NewGenerator must refuse it with an error.
	bad := base
	bad.Phases = deep
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("NewGenerator panicked on a 300-deep band: %v", r)
			}
		}()
		if _, err := NewGenerator(bad, testGeom, 1, 1_000); err == nil {
			t.Error("NewGenerator accepted a 300-deep band")
		}
	}()
	// 256 is the deepest band slot ids can number.
	bad.Phases = []Phase{{FracOfRun: 1, Bands: []DemandBand{{Frac: 1, MinDepth: 256, MaxDepth: 256}}}}
	if _, err := NewGenerator(bad, testGeom, 1, 1_000); err != nil {
		t.Errorf("NewGenerator rejected a 256-deep band: %v", err)
	}
}
