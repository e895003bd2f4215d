package cache

import (
	"math/bits"

	"snug/internal/addr"
)

// Read-only views of the array that only tests need: the unit tests
// inspect set contents with them, and the packed-versus-reference
// differential compares them against refCache.

// Geometry returns the cache's address mapping.
func (c *Cache) Geometry() addr.Geometry {
	return addr.MustGeometry(1<<c.offBits, len(c.meta))
}

// Probe reports whether a's tag is present at its original index, without
// updating LRU state or statistics.
func (c *Cache) Probe(a addr.Addr) bool {
	return c.matchWay(c.Index(a), c.Tag(a)) >= 0
}

// Peek returns the block holding a's tag at its original index, without
// updating LRU state or statistics. found is false when absent.
func (c *Cache) Peek(a addr.Addr) (blk Block, found bool) {
	s := c.Index(a)
	if w := c.matchWay(s, c.Tag(a)); w >= 0 {
		return c.blockAt(s, w), true
	}
	return Block{}, false
}

// Victim returns the way the next fill of set setIdx would take, and the
// block there, without modifying the set.
func (c *Cache) Victim(setIdx uint32) (way int, evicted Block) {
	w := c.victimWay(setIdx)
	return w, c.blockAt(setIdx, w)
}

// SetView calls fn for each valid block of set setIdx, in way order.
func (c *Cache) SetView(setIdx uint32, fn func(way int, b Block)) {
	for v := c.meta[setIdx] & c.waySel; v != 0; v &= v - 1 {
		w := bits.TrailingZeros64(v) >> 2
		fn(w, c.blockAt(setIdx, w))
	}
}

// LRUOrder returns the valid ways of set setIdx from MRU to LRU: a read of
// the rank word.
func (c *Cache) LRUOrder(setIdx uint32) []int {
	m := c.meta[setIdx]
	order := c.lru[setIdx]
	out := make([]int, 0, c.ways)
	for r := 0; r < c.ways; r++ {
		w := int(order>>(uint(r)*4)) & nibbleMask
		if m>>(uint(w)*4)&bValid != 0 {
			out = append(out, w)
		}
	}
	return out
}

// ValidCount returns the number of valid lines in set setIdx.
func (c *Cache) ValidCount(setIdx uint32) int {
	return bits.OnesCount64(c.meta[setIdx] & c.waySel)
}
