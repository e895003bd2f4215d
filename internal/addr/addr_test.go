package addr

import (
	"testing"
	"testing/quick"
)

func TestGeometryDecomposition(t *testing.T) {
	g := MustGeometry(64, 1024) // the Table 4 L2 slice
	if g.OffsetBits() != 6 || g.IndexBits() != 10 {
		t.Fatalf("got offset=%d index=%d bits, want 6/10", g.OffsetBits(), g.IndexBits())
	}
	a := Addr(0xDEAD_BEEF)
	if got, want := g.Index(a), uint32((0xDEADBEEF>>6)&1023); got != want {
		t.Errorf("Index = %d, want %d", got, want)
	}
	if got, want := g.Tag(a), uint64(0xDEADBEEF>>16); got != want {
		t.Errorf("Tag = %#x, want %#x", got, want)
	}
	if got, want := g.Block(a), Addr(0xDEADBEEF&^63); got != want {
		t.Errorf("Block = %#x, want %#x", got, want)
	}
}

func TestGeometryRebuildRoundTrip(t *testing.T) {
	g := MustGeometry(64, 1024)
	f := func(raw uint64) bool {
		a := g.Block(Addr(raw))
		return g.Rebuild(g.Tag(a), g.Index(a)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometryRejectsBadShapes(t *testing.T) {
	for _, c := range []struct{ block, sets int }{
		{0, 1024}, {63, 1024}, {64, 0}, {64, 1000}, {-64, 16}, {64, -4},
	} {
		if _, err := NewGeometry(c.block, c.sets); err == nil {
			t.Errorf("NewGeometry(%d, %d) succeeded, want error", c.block, c.sets)
		}
	}
}

func TestForCoreDisjointAddressSpaces(t *testing.T) {
	g := MustGeometry(64, 1024)
	a := Addr(0x12345)
	seenTags := map[uint64]bool{}
	for core := 0; core < 4; core++ {
		pa := ForCore(core, a)
		if got := int(pa>>coreShift) - 1; got != core {
			t.Errorf("ForCore(%d, a) encodes core %d", core, got)
		}
		// The set index must be unaffected; the tag must be unique per core.
		if g.Index(pa) != g.Index(a) {
			t.Errorf("core %d: index changed %d -> %d", core, g.Index(a), g.Index(pa))
		}
		tag := g.Tag(pa)
		if seenTags[tag] {
			t.Errorf("core %d: tag %#x collides with another core", core, tag)
		}
		seenTags[tag] = true
	}
}

func TestFlipLastIndexBitPairsSets(t *testing.T) {
	for _, c := range []struct{ in, want uint32 }{
		{0, 1}, {1, 0}, {2, 3}, {3, 2}, {1022, 1023}, {1023, 1022},
	} {
		if got := FlipLastIndexBit(c.in); got != c.want {
			t.Errorf("FlipLastIndexBit(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// Flipping is an involution.
	f := func(idx uint32) bool { return FlipLastIndexBit(FlipLastIndexBit(idx)) == idx }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
