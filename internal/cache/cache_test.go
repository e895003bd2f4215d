package cache

import (
	"testing"
	"testing/quick"

	"snug/internal/addr"
)

func testCache(t *testing.T, sets, ways int) *Cache {
	t.Helper()
	return MustNew(addr.MustGeometry(64, sets), ways)
}

// mkAddr builds a block address with the given tag and set index under the
// 64 B / sets geometry.
func mkAddr(g addr.Geometry, tag uint64, set uint32) addr.Addr {
	return g.Rebuild(tag, set)
}

func TestLookupMissThenHit(t *testing.T) {
	c := testCache(t, 16, 4)
	a := mkAddr(c.Geometry(), 7, 3)
	if c.Lookup(a, false) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(a, Block{Owner: 1})
	if !c.Lookup(a, false) {
		t.Fatal("miss after insert")
	}
	blk, found := c.Peek(a)
	if !found || blk.Owner != 1 || blk.Dirty {
		t.Fatalf("block state (%+v, %v)", blk, found)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWriteSetsDirty(t *testing.T) {
	c := testCache(t, 16, 4)
	a := mkAddr(c.Geometry(), 9, 0)
	c.Insert(a, Block{})
	c.Lookup(a, true)
	if blk, _ := c.Peek(a); !blk.Dirty {
		t.Fatal("write did not set dirty bit")
	}
}

func TestExactLRUReplacement(t *testing.T) {
	c := testCache(t, 4, 4)
	g := c.Geometry()
	// Fill set 0 with tags 1..4, then touch 1,3 — LRU must be 2.
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(mkAddr(g, tag, 0), Block{})
	}
	c.Lookup(mkAddr(g, 1, 0), false)
	c.Lookup(mkAddr(g, 3, 0), false)
	victim := c.Insert(mkAddr(g, 5, 0), Block{})
	if victim.Tag != 2 {
		t.Fatalf("victim tag = %d, want 2 (true LRU)", victim.Tag)
	}
}

func TestVictimPrefersInvalidWays(t *testing.T) {
	c := testCache(t, 4, 4)
	g := c.Geometry()
	c.Insert(mkAddr(g, 1, 0), Block{})
	way, ev := c.Victim(0)
	if ev.Valid {
		t.Fatalf("victim is valid (%+v) while invalid ways remain", ev)
	}
	if way == 0 && c.ValidCount(0) != 1 {
		t.Fatal("inconsistent set state")
	}
}

func TestLRUOrderTracksAccesses(t *testing.T) {
	c := testCache(t, 2, 4)
	g := c.Geometry()
	for tag := uint64(1); tag <= 4; tag++ {
		c.Insert(mkAddr(g, tag, 1), Block{})
	}
	c.Lookup(mkAddr(g, 2, 1), false) // tag 2 becomes MRU
	order := c.LRUOrder(1)
	if len(order) != 4 {
		t.Fatalf("order length %d", len(order))
	}
	// The MRU way must hold tag 2.
	var mruTag uint64
	c.SetView(1, func(way int, b Block) {
		if way == order[0] {
			mruTag = b.Tag
		}
	})
	if mruTag != 2 {
		t.Fatalf("MRU tag = %d, want 2", mruTag)
	}
}

func TestFindCCMatchesFlipState(t *testing.T) {
	c := testCache(t, 8, 4)
	// A cooperative block stored at flipped index 5 with f=1, original
	// index 4.
	c.InsertAt(5, Block{Tag: 77, CC: true, F: true, Owner: 2})
	if found, _ := c.FindCC(5, 77, false); found {
		t.Error("f=0 search matched an f=1 block")
	}
	found, way := c.FindCC(5, 77, true)
	if !found {
		t.Fatal("f=1 search missed the block")
	}
	old := c.InvalidateWay(5, way)
	if old.Tag != 77 || !old.CC {
		t.Fatalf("invalidated %+v", old)
	}
	if found, _ := c.FindCC(5, 77, true); found {
		t.Error("block still present after invalidation")
	}
}

func TestLookupIgnoresFlippedCCBlocks(t *testing.T) {
	c := testCache(t, 8, 4)
	g := c.Geometry()
	// A flipped cooperative block must never satisfy a plain lookup in its
	// residence set: its stored tag belongs to a different original index.
	c.InsertAt(5, Block{Tag: g.Tag(mkAddr(g, 33, 4)), CC: true, F: true})
	if c.Lookup(mkAddr(g, 33, 5), false) {
		t.Fatal("plain lookup matched a flipped cooperative block")
	}
}

func TestInvalidate(t *testing.T) {
	c := testCache(t, 8, 2)
	a := mkAddr(c.Geometry(), 3, 6)
	c.Insert(a, Block{Dirty: true})
	old, found := c.Invalidate(a)
	if !found || !old.Dirty {
		t.Fatalf("Invalidate = (%+v, %v)", old, found)
	}
	if _, found := c.Invalidate(a); found {
		t.Fatal("double invalidate found the block again")
	}
}

func TestDropWhere(t *testing.T) {
	c := testCache(t, 4, 4)
	c.InsertAt(2, Block{Tag: 1, CC: true})
	c.InsertAt(2, Block{Tag: 2})
	c.InsertAt(2, Block{Tag: 3, CC: true, F: true})
	n := c.DropWhere(2, func(b Block) bool { return b.CC })
	if n != 2 {
		t.Fatalf("dropped %d, want 2", n)
	}
	if c.ValidCount(2) != 1 {
		t.Fatalf("remaining %d, want 1", c.ValidCount(2))
	}
}

func TestEvictionStats(t *testing.T) {
	c := testCache(t, 1, 2)
	g := c.Geometry()
	c.Insert(mkAddr(g, 1, 0), Block{Dirty: true})
	c.Insert(mkAddr(g, 2, 0), Block{CC: true})
	c.Insert(mkAddr(g, 3, 0), Block{}) // evicts tag 1 (dirty)
	c.Insert(mkAddr(g, 4, 0), Block{}) // evicts tag 2 (CC)
	st := c.Stats()
	if st.Evictions != 2 || st.DirtyEvicts != 1 || st.CCEvictions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInclusionPropertyUnderLRU(t *testing.T) {
	// LRU's stack property: the content of an a-way cache is a subset of a
	// 2a-way cache under the same access stream. This is the property the
	// paper's Formula (1)-(3) machinery rests on.
	small := testCache(t, 4, 4)
	big := testCache(t, 4, 8)
	g := small.Geometry()
	seq := []uint64{1, 2, 3, 4, 5, 1, 6, 2, 7, 3, 8, 9, 1, 2, 10, 4, 11, 5}
	for _, tag := range seq {
		a := mkAddr(g, tag, 2)
		if !small.Lookup(a, false) {
			small.Insert(a, Block{})
		}
		if !big.Lookup(a, false) {
			big.Insert(a, Block{})
		}
		// Every block in small must be in big.
		small.SetView(2, func(_ int, b Block) {
			if !big.Probe(g.Rebuild(b.Tag, 2)) {
				t.Fatalf("inclusion violated for tag %d", b.Tag)
			}
		})
	}
}

func TestHitsNeverDecreaseWithAssociativity(t *testing.T) {
	// Property: for a random access stream, a 2a-way cache hits at least as
	// often as an a-way cache (LRU stack property, Formula (1)).
	f := func(raw []uint8) bool {
		small := testCache(t, 2, 4)
		big := testCache(t, 2, 8)
		g := small.Geometry()
		var hitsSmall, hitsBig int
		for _, r := range raw {
			a := mkAddr(g, uint64(r%32), uint32(r)%2)
			if small.Lookup(a, false) {
				hitsSmall++
			} else {
				small.Insert(a, Block{})
			}
			if big.Lookup(a, false) {
				hitsBig++
			} else {
				big.Insert(a, Block{})
			}
		}
		return hitsBig >= hitsSmall
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsNonPositiveWays(t *testing.T) {
	if _, err := New(addr.MustGeometry(64, 4), 0); err == nil {
		t.Fatal("0-way cache accepted")
	}
}

func TestRejectsOverwideAssociativity(t *testing.T) {
	// The rank-nibble LRU word holds 16 ranks; wider arrays must be refused
	// loudly rather than silently corrupting replacement state.
	if _, err := New(addr.MustGeometry(64, 4), 17); err == nil {
		t.Fatal("17-way cache accepted beyond the rank-nibble limit")
	}
	if _, err := New(addr.MustGeometry(64, 4), 16); err != nil {
		t.Fatalf("16-way cache rejected: %v", err)
	}
}
