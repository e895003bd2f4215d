package cache

import (
	"fmt"
	"testing"

	"snug/internal/addr"
)

// refBlock and refCache are the pre-packed-layout reference model: an
// array-of-structs cache with explicit per-line LRU timestamps driven by a
// global tick — a direct transcription of the engine this package replaced.
// The differential test drives it and the packed struct-of-arrays engine
// through the same randomized op stream and requires identical observable
// behaviour: hits, victims, FindCC answers, LRU orders and statistics.
type refBlock struct {
	Block
	use uint64
}

type refCache struct {
	geom  addr.Geometry
	ways  int
	lines []refBlock
	tick  uint64
	stats Stats
}

func newRefCache(geom addr.Geometry, ways int) *refCache {
	return &refCache{geom: geom, ways: ways, lines: make([]refBlock, geom.Sets()*ways)}
}

func (c *refCache) set(s uint32) []refBlock {
	base := int(s) * c.ways
	return c.lines[base : base+c.ways]
}

func (c *refCache) matchWay(set []refBlock, tag uint64) int {
	for i := range set {
		b := &set[i]
		if b.Tag == tag && b.Valid && !(b.CC && b.F) {
			return i
		}
	}
	return -1
}

func (c *refCache) Lookup(a addr.Addr, write bool) bool {
	set := c.set(c.geom.Index(a))
	if w := c.matchWay(set, c.geom.Tag(a)); w >= 0 {
		c.tick++
		set[w].use = c.tick
		if write {
			set[w].Dirty = true
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

func (c *refCache) Peek(a addr.Addr) (Block, bool) {
	set := c.set(c.geom.Index(a))
	if w := c.matchWay(set, c.geom.Tag(a)); w >= 0 {
		return set[w].Block, true
	}
	return Block{}, false
}

func (c *refCache) FindCC(setIdx uint32, tag uint64, flipped bool) (bool, int) {
	set := c.set(setIdx)
	for i := range set {
		b := &set[i]
		if b.Valid && b.CC && b.F == flipped && b.Tag == tag {
			return true, i
		}
	}
	return false, -1
}

func (c *refCache) victim(setIdx uint32) (int, Block) {
	set := c.set(setIdx)
	lru, lruUse := -1, ^uint64(0)
	for i := range set {
		b := &set[i]
		if !b.Valid {
			return i, Block{}
		}
		if b.use < lruUse {
			lru, lruUse = i, b.use
		}
	}
	return lru, set[lru].Block
}

func (c *refCache) fill(setIdx uint32, way int, nb Block) Block {
	set := c.set(setIdx)
	victim := set[way].Block
	if victim.Valid {
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
		}
		if victim.CC {
			c.stats.CCEvictions++
		}
	}
	c.tick++
	nb.Valid = true
	set[way] = refBlock{Block: nb, use: c.tick}
	c.stats.Fills++
	return victim
}

func (c *refCache) Insert(a addr.Addr, nb Block) Block {
	s := c.geom.Index(a)
	nb.Tag = c.geom.Tag(a)
	way, _ := c.victim(s)
	return c.fill(s, way, nb)
}

func (c *refCache) InsertAt(setIdx uint32, nb Block) Block {
	way, _ := c.victim(setIdx)
	return c.fill(setIdx, way, nb)
}

func (c *refCache) InvalidateWay(setIdx uint32, way int) Block {
	set := c.set(setIdx)
	old := set[way].Block
	if old.Valid {
		c.stats.Invalidations++
	}
	set[way] = refBlock{}
	return old
}

func (c *refCache) Invalidate(a addr.Addr) (Block, bool) {
	set := c.set(c.geom.Index(a))
	if w := c.matchWay(set, c.geom.Tag(a)); w >= 0 {
		old := set[w].Block
		c.stats.Invalidations++
		set[w] = refBlock{}
		return old, true
	}
	return Block{}, false
}

func (c *refCache) DropWhere(setIdx uint32, pred func(Block) bool) int {
	set := c.set(setIdx)
	n := 0
	for i := range set {
		if set[i].Valid && pred(set[i].Block) {
			set[i] = refBlock{}
			c.stats.Invalidations++
			n++
		}
	}
	return n
}

func (c *refCache) LRUOrder(setIdx uint32) []int {
	set := c.set(setIdx)
	type wu struct {
		way int
		use uint64
	}
	var order []wu
	for i := range set {
		if set[i].Valid {
			order = append(order, wu{i, set[i].use})
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].use > order[j-1].use; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]int, len(order))
	for i, o := range order {
		out[i] = o.way
	}
	return out
}

// splitmix64 is a self-contained RNG so the differential stream does not
// depend on other packages.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4794a45b3c6b0 // distinct odd constant
	return z ^ (z >> 31)
}

// diffRun drives both engines through n randomized mixed ops on the given
// geometry and fails on the first observable divergence.
func diffRun(t *testing.T, sets, ways int, n int, seed uint64) {
	t.Helper()
	geom := addr.MustGeometry(64, sets)
	packed := MustNew(geom, ways)
	ref := newRefCache(geom, ways)
	rng := seed

	tagSpace := uint64(4 * sets * ways) // enough reuse for hits and evictions
	randAddr := func() addr.Addr {
		tag := splitmix64(&rng) % tagSpace
		set := uint32(splitmix64(&rng)) % uint32(sets)
		return geom.Rebuild(tag, set)
	}
	randBlock := func() Block {
		r := splitmix64(&rng)
		b := Block{Dirty: r&1 != 0, Owner: int8(r >> 8 & 7)}
		if r&2 != 0 {
			b.CC = true
			b.F = r&4 != 0
		}
		return b
	}

	for i := 0; i < n; i++ {
		op := splitmix64(&rng) % 100
		switch {
		case op < 40: // Lookup
			a := randAddr()
			write := splitmix64(&rng)&1 != 0
			if gh, wh := packed.Lookup(a, write), ref.Lookup(a, write); gh != wh {
				t.Fatalf("op %d: Lookup(%x) packed=%v ref=%v", i, a, gh, wh)
			}
		case op < 60: // Insert
			a, b := randAddr(), randBlock()
			b.CC, b.F = false, false // Insert models local fills
			if gv, wv := packed.Insert(a, b), ref.Insert(a, b); gv != wv {
				t.Fatalf("op %d: Insert victim packed=%+v ref=%+v", i, gv, wv)
			}
		case op < 72: // InsertAt (cooperative fill at an explicit set)
			s := uint32(splitmix64(&rng)) % uint32(sets)
			b := randBlock()
			b.Tag = splitmix64(&rng) % tagSpace
			if gv, wv := packed.InsertAt(s, b), ref.InsertAt(s, b); gv != wv {
				t.Fatalf("op %d: InsertAt victim packed=%+v ref=%+v", i, gv, wv)
			}
		case op < 82: // FindCC
			s := uint32(splitmix64(&rng)) % uint32(sets)
			tag := splitmix64(&rng) % tagSpace
			fl := splitmix64(&rng)&1 != 0
			gf, gw := packed.FindCC(s, tag, fl)
			wf, ww := ref.FindCC(s, tag, fl)
			if gf != wf || (gf && gw != ww) {
				t.Fatalf("op %d: FindCC(%d,%d,%v) packed=(%v,%d) ref=(%v,%d)", i, s, tag, fl, gf, gw, wf, ww)
			}
		case op < 89: // Invalidate by address
			a := randAddr()
			gb, gok := packed.Invalidate(a)
			wb, wok := ref.Invalidate(a)
			if gok != wok || gb != wb {
				t.Fatalf("op %d: Invalidate(%x) packed=(%+v,%v) ref=(%+v,%v)", i, a, gb, gok, wb, wok)
			}
		case op < 93: // InvalidateWay
			s := uint32(splitmix64(&rng)) % uint32(sets)
			w := int(splitmix64(&rng)) % ways
			if w < 0 {
				w = -w
			}
			if gb, wb := packed.InvalidateWay(s, w), ref.InvalidateWay(s, w); gb != wb {
				t.Fatalf("op %d: InvalidateWay(%d,%d) packed=%+v ref=%+v", i, s, w, gb, wb)
			}
		case op < 96: // DropWhere
			s := uint32(splitmix64(&rng)) % uint32(sets)
			r := splitmix64(&rng)
			pred := func(b Block) bool { return b.CC == (r&1 != 0) && (r&2 == 0 || b.Dirty) }
			if gn, wn := packed.DropWhere(s, pred), ref.DropWhere(s, pred); gn != wn {
				t.Fatalf("op %d: DropWhere(%d) packed=%d ref=%d", i, s, gn, wn)
			}
		case op < 98: // Victim (pure read)
			s := uint32(splitmix64(&rng)) % uint32(sets)
			gw, gb := packed.Victim(s)
			ww, wb := ref.victim(s)
			if gw != ww || gb != wb {
				t.Fatalf("op %d: Victim(%d) packed=(%d,%+v) ref=(%d,%+v)", i, s, gw, gb, ww, wb)
			}
		default: // Peek (pure read)
			a := randAddr()
			gb, gok := packed.Peek(a)
			wb, wok := ref.Peek(a)
			if gok != wok || gb != wb {
				t.Fatalf("op %d: Peek(%x) packed=(%+v,%v) ref=(%+v,%v)", i, a, gb, gok, wb, wok)
			}
		}

		// Cross-checks at a sampling stride: full per-op checking would
		// dominate the run without adding coverage.
		if i%1024 == 0 {
			s := uint32(splitmix64(&rng)) % uint32(sets)
			if g, w := fmt.Sprint(packed.LRUOrder(s)), fmt.Sprint(ref.LRUOrder(s)); g != w {
				t.Fatalf("op %d: LRUOrder(%d) packed=%s ref=%s", i, s, g, w)
			}
		}
	}

	if packed.Stats() != ref.stats {
		t.Fatalf("stats diverged: packed=%+v ref=%+v", packed.Stats(), ref.stats)
	}
	for s := uint32(0); s < uint32(sets); s++ {
		if g, w := fmt.Sprint(packed.LRUOrder(s)), fmt.Sprint(ref.LRUOrder(s)); g != w {
			t.Fatalf("final LRUOrder(%d) packed=%s ref=%s", s, g, w)
		}
	}
}

// TestPackedEngineMatchesReference is the randomized differential bar for
// the struct-of-arrays rewrite: ~1M mixed ops across the simulator's real
// geometries (4-way L1-like, 16-way L2-like, odd widths) must be
// observably identical to the reference model.
func TestPackedEngineMatchesReference(t *testing.T) {
	n := 250_000
	if testing.Short() {
		n = 25_000
	}
	cases := []struct {
		sets, ways int
	}{
		{16, 4},  // L1-shaped
		{64, 16}, // test-scale L2 slice
		{8, 1},   // direct-mapped corner
		{4, 7},   // non-power-of-two associativity
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%dsx%dw", c.sets, c.ways), func(t *testing.T) {
			diffRun(t, c.sets, c.ways, n, 0x5eed+uint64(c.sets*31+c.ways))
		})
	}
}
