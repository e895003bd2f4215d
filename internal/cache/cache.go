// Package cache implements the set-associative, write-back cache arrays
// used for the private L1/L2 caches and the shared-L2 banks. Blocks carry
// the metadata fields of the paper's Figure 4: tag, valid, dirty, the CC bit
// (cooperatively cached / foreign block) and the f bit (index-bit flipped),
// plus the owning core for accounting. Replacement is true LRU, which the
// paper relies on for its stack-property arguments (§2.1).
//
// The cache is a passive tag/state array: it performs lookups, victim
// selection, fills and invalidations, but the *policy* of what to do on a
// miss (fetch from DRAM, spill, retrieve from a peer) belongs to the scheme
// controllers in internal/schemes and internal/core.
//
// # Packed struct-of-arrays layout
//
// The array is stored as struct-of-arrays, sized for the simulator's
// per-access hot path (see DESIGN.md, "Performance"):
//
//   - tags:   one flat []uint64, row-major by set — the tag-match scan
//     walks dense tag memory instead of 32-byte block structs.
//   - meta:   one uint64 per set holding a 4-bit field per way
//     (bit 0 valid, bit 1 dirty, bit 2 CC, bit 3 F) — the Figure 4
//     metadata bits. Per-set predicates ("any invalid way", "valid CC
//     blocks with f=1") are single mask expressions over this word.
//   - lru:    one uint64 per set holding the true-LRU order as 4-bit rank
//     nibbles: nibble r stores the way at recency rank r (rank 0 = MRU,
//     rank ways-1 = LRU). Victim selection is a shift (no timestamp
//     scan, no global tick counter), and promotion to MRU is a
//     constant-time rotate of the ranks above the hit way.
//   - owners: one int8 per line (cold accounting state).
//
// The rank-nibble encoding caps associativity at 16 ways — exactly the
// paper's L2 slice — which New enforces.
//
// # CC occupancy index
//
// The array additionally maintains an exact per-(set, flip) count of the
// cooperatively cached blocks it holds, plus a bitmap of sets with any CC
// block. FindCC — the peer-side probe of every retrieval broadcast —
// consults the count first and answers "not here" in O(1), turning the
// cooperative schemes' per-miss O(cores × ways) broadcast scans into one
// counter check per peer; SNUG's stranded-block sweep (ForEachCCSet) visits
// only sets that hold cooperative blocks. The counts are exact, not
// conservative: every path that installs or removes a block (Fill,
// Invalidate, InvalidateWay, DropWhere, Flush) adjusts them, so a zero
// count proves the set holds no matching cooperative block.
package cache

import (
	"fmt"
	"math/bits"

	"snug/internal/addr"
)

// Block is one cache line's metadata. The data payload is not simulated;
// only tags and state matter for hit/miss behaviour and timing. Block is
// the cache's value-type API: the packed array assembles and consumes
// Blocks at its edges (fills, victims, views).
type Block struct {
	Tag   uint64
	Valid bool
	Dirty bool
	// CC marks a cooperatively cached (foreign) block: a block spilled into
	// this cache by a peer. CC==false means the line is owned by the local
	// core ("local line").
	CC bool
	// F is meaningful only when CC is set: the block was cooperatively
	// cached with the last bit of its original set index flipped (paper
	// §3.2). F==false means it sits at its original index.
	F bool
	// Owner is the core that owns the block's address space.
	Owner int8
}

// Per-way metadata bits within a set's 4-bit meta field.
const (
	bValid = 1 << 0
	bDirty = 1 << 1
	bCC    = 1 << 2
	bF     = 1 << 3

	nibbleMask = 0xf
	// maxWays is the associativity limit of the 4-bit rank-nibble LRU
	// word (16 ranks in a uint64).
	maxWays = 16
)

// lowBits has bit 0 of every nibble set; multiplying a nibble value by it
// broadcasts the value to all 16 nibble lanes.
const lowBits = 0x1111_1111_1111_1111

// highBits has bit 3 of every nibble set (the SWAR zero-nibble detector).
const highBits = 0x8888_8888_8888_8888

// Stats aggregates cache-array event counts.
type Stats struct {
	Hits          int64
	Misses        int64
	Fills         int64
	Evictions     int64
	DirtyEvicts   int64
	CCEvictions   int64 // cooperative blocks evicted (dropped, 1-chance rule)
	Invalidations int64
}

// Cache is a set-associative array with true-LRU replacement, stored as a
// packed struct-of-arrays (see the package comment for the layout).
type Cache struct {
	geom addr.Geometry
	ways int
	sets int

	tags   []uint64 // sets×ways row-major: dense tag memory
	owners []int8   // sets×ways row-major
	meta   []uint64 // per set: 4-bit valid/dirty/CC/F field per way
	lru    []uint64 // per set: rank→way nibbles, rank 0 = MRU

	// CC occupancy index: ccCnt packs the per-set cooperative-block counts
	// (f=0 in the low 16 bits, f=1 in the high 16); ccSets is a bitmap of
	// sets whose combined count is nonzero.
	ccCnt  []uint32
	ccSets []uint64

	stats Stats

	// Cached geometry arithmetic: Lookup sits on the simulator's
	// per-access hot path, so the index/tag shift and mask are flattened
	// out of the Geometry value into direct fields.
	offBits  uint
	tagShift uint
	idxMask  uint64

	// Precomputed way-window masks: waySel selects bit 0 of every real
	// way's meta nibble; lruShift is the LRU-rank nibble's bit position.
	waySel   uint64
	lruInit  uint64 // identity rank permutation (nibble r = r)
	lruShift uint

	// Single-entry hit memo: the (set, tag, way) of the last tag-match
	// scan that hit. It is valid only while the memoized set is untouched
	// — Fill, invalidation and Flush clear it — so a memo hit provably
	// resolves to the same way a fresh scan would, duplicate tags
	// included. Repeated accesses to a hot block (the dominant L1
	// pattern) skip the scan entirely.
	memoTag uint64
	memoSet uint32
	memoWay int32
	memoOK  bool
}

// New builds a cache with the given geometry and associativity.
func New(geom addr.Geometry, ways int) (*Cache, error) {
	if ways <= 0 {
		return nil, fmt.Errorf("cache: associativity must be positive, got %d", ways)
	}
	if ways > maxWays {
		return nil, fmt.Errorf("cache: associativity %d exceeds the rank-nibble LRU limit of %d ways", ways, maxWays)
	}
	sets := geom.Sets()
	c := &Cache{
		geom:     geom,
		ways:     ways,
		sets:     sets,
		tags:     make([]uint64, sets*ways),
		owners:   make([]int8, sets*ways),
		meta:     make([]uint64, sets),
		lru:      make([]uint64, sets),
		ccCnt:    make([]uint32, sets),
		ccSets:   make([]uint64, (sets+63)/64),
		offBits:  geom.OffsetBits(),
		tagShift: geom.OffsetBits() + geom.IndexBits(),
		idxMask:  uint64(sets - 1),
		lruShift: uint(ways-1) * 4,
	}
	for w := 0; w < ways; w++ {
		c.waySel |= uint64(1) << (uint(w) * 4)
		c.lruInit |= uint64(w) << (uint(w) * 4)
	}
	for s := range c.lru {
		c.lru[s] = c.lruInit
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(geom addr.Geometry, ways int) *Cache {
	c, err := New(geom, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// Geometry returns the cache's address mapping.
func (c *Cache) Geometry() addr.Geometry { return c.geom }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// Index returns the set index for a under this cache's geometry.
func (c *Cache) Index(a addr.Addr) uint32 {
	return uint32((uint64(a) >> c.offBits) & c.idxMask)
}

// Tag returns the tag for a under this cache's geometry.
func (c *Cache) Tag(a addr.Addr) uint64 { return uint64(a) >> c.tagShift }

// blockAt assembles the Block value stored at (s, way); invalid ways
// assemble to the zero Block.
func (c *Cache) blockAt(s uint32, way int) Block {
	f := (c.meta[s] >> (uint(way) * 4)) & nibbleMask
	if f&bValid == 0 {
		return Block{}
	}
	i := int(s)*c.ways + way
	return Block{
		Tag:   c.tags[i],
		Valid: true,
		Dirty: f&bDirty != 0,
		CC:    f&bCC != 0,
		F:     f&bF != 0,
		Owner: c.owners[i],
	}
}

// matchWay returns the way of set s holding tag at its original index
// (local lines and CC blocks with F==false), or -1. It is the tag-match
// scan shared by Lookup, Probe, Peek and Invalidate: the per-set meta word
// yields the eligible ways (valid && !(CC && F)) in one mask expression,
// and only their tags — dense, row-major — are compared, in way order.
func (c *Cache) matchWay(s uint32, tag uint64) int {
	m := c.meta[s]
	elig := (m &^ ((m >> 2) & (m >> 3))) & c.waySel
	base := int(s) * c.ways
	for ; elig != 0; elig &= elig - 1 {
		w := bits.TrailingZeros64(elig) >> 2
		if c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// rankShift returns the bit position (4 × rank) of way w's nibble in the
// rank→way order word: a SWAR broadcast-XOR turns the matching nibble into
// zero, the (x-1)&^x&8 zero-nibble detector flags it, and trailing zeros
// locate it. order's low nibbles are a permutation, so exactly one nibble
// matches; higher (unused) nibbles are zero and can only flag above the
// true match, which TrailingZeros64 ignores.
func rankShift(order uint64, w int) uint {
	x := order ^ (uint64(w) * lowBits)
	y := (x - lowBits) & ^x & highBits
	return uint(bits.TrailingZeros64(y)) - 3
}

// promote moves way w to rank 0 (MRU) in the order word: the ranks above
// it rotate up by one nibble — a constant-time operation, independent of
// associativity.
func promote(order uint64, w int) uint64 {
	p := rankShift(order, w)
	below := order & (uint64(1)<<p - 1)
	return order&^(uint64(1)<<(p+4)-1) | below<<4 | uint64(w)
}

// Lookup searches set-of(a) for a's tag among lines that sit at their
// original index (local lines and CC blocks with F==false). On a hit the
// block is promoted to MRU, the dirty bit is set for writes, and hit
// statistics are updated. On a miss only the miss counter is updated.
// Use Peek to inspect a resident block's state without side effects.
func (c *Cache) Lookup(a addr.Addr, write bool) bool {
	s := uint32((uint64(a) >> c.offBits) & c.idxMask)
	tag := uint64(a) >> c.tagShift
	w := -1
	if c.memoOK && tag == c.memoTag && s == c.memoSet {
		w = int(c.memoWay)
	} else if w = c.matchWay(s, tag); w >= 0 {
		c.memoTag, c.memoSet, c.memoWay, c.memoOK = tag, s, int32(w), true
	}
	if w >= 0 {
		if order := c.lru[s]; int(order&nibbleMask) != w {
			c.lru[s] = promote(order, w)
		}
		if write {
			c.meta[s] |= uint64(bDirty) << (uint(w) * 4)
		}
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
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

// ccInc counts a cooperative block entering set s with flip state flipped.
func (c *Cache) ccInc(s uint32, flipped bool) {
	if c.ccCnt[s] == 0 {
		c.ccSets[s>>6] |= 1 << (s & 63)
	}
	if flipped {
		c.ccCnt[s] += 1 << 16
	} else {
		c.ccCnt[s]++
	}
}

// ccDec counts a cooperative block leaving set s with flip state flipped.
func (c *Cache) ccDec(s uint32, flipped bool) {
	if flipped {
		c.ccCnt[s] -= 1 << 16
	} else {
		c.ccCnt[s]--
	}
	if c.ccCnt[s] == 0 {
		c.ccSets[s>>6] &^= 1 << (s & 63)
	}
}

// CCCount returns the exact number of valid cooperative blocks in set
// setIdx with the given flip state — the occupancy index behind FindCC's
// O(1) negative answer.
func (c *Cache) CCCount(setIdx uint32, flipped bool) int {
	if flipped {
		return int(c.ccCnt[setIdx] >> 16)
	}
	return int(c.ccCnt[setIdx] & 0xffff)
}

// ForEachCCSet calls fn for every set currently holding at least one
// cooperative block, in ascending set order. fn may invalidate blocks of
// the set it is given (the bitmap word is snapshotted per 64-set window);
// it must not install new cooperative blocks.
func (c *Cache) ForEachCCSet(fn func(setIdx uint32)) {
	for i, word := range c.ccSets {
		for w := word; w != 0; w &= w - 1 {
			fn(uint32(i<<6 + bits.TrailingZeros64(w)))
		}
	}
}

// FindCC searches set index setIdx for a cooperatively cached block with
// the given tag and flip state. It is the peer-side lookup of the SNUG
// retrieval protocol (§3.2): for a request with original index i, a peer
// searches set i for (CC, f=0) blocks or set i^1 for (CC, f=1) blocks.
// The occupancy index answers an empty candidate set in O(1), so a
// retrieval broadcast costs each non-holding peer one counter check
// instead of a set scan. It does not update LRU or statistics.
func (c *Cache) FindCC(setIdx uint32, tag uint64, flipped bool) (found bool, way int) {
	if c.CCCount(setIdx, flipped) == 0 {
		return false, -1
	}
	m := c.meta[setIdx]
	sel := m & (m >> 2) & c.waySel // valid && CC
	f := (m >> 3) & c.waySel
	if flipped {
		sel &= f
	} else {
		sel &^= f
	}
	base := int(setIdx) * c.ways
	for ; sel != 0; sel &= sel - 1 {
		w := bits.TrailingZeros64(sel) >> 2
		if c.tags[base+w] == tag {
			return true, w
		}
	}
	return false, -1
}

// victimWay selects the fill target in set s: the lowest-index invalid way
// if one exists (one mask expression over the meta word), otherwise the
// way at LRU rank (one shift of the order word).
func (c *Cache) victimWay(s uint32) int {
	if inv := ^c.meta[s] & c.waySel; inv != 0 {
		return bits.TrailingZeros64(inv) >> 2
	}
	return int(c.lru[s]>>c.lruShift) & nibbleMask
}

// Victim selects the fill target in set setIdx: an invalid way if one
// exists, otherwise the LRU way. It does not modify the set.
func (c *Cache) Victim(setIdx uint32) (way int, evicted Block) {
	w := c.victimWay(setIdx)
	return w, c.blockAt(setIdx, w)
}

// Fill installs a block into (setIdx, way) at MRU position, returning the
// displaced block (Valid==false if the way was empty). Eviction statistics
// are recorded for valid victims.
func (c *Cache) Fill(setIdx uint32, way int, nb Block) (victim Block) {
	victim = c.blockAt(setIdx, way)
	if victim.Valid {
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.DirtyEvicts++
		}
		if victim.CC {
			c.stats.CCEvictions++
			c.ccDec(setIdx, victim.F)
		}
	}
	i := int(setIdx)*c.ways + way
	c.tags[i] = nb.Tag
	c.owners[i] = nb.Owner
	f := uint64(bValid)
	if nb.Dirty {
		f |= bDirty
	}
	if nb.CC {
		f |= bCC
		c.ccInc(setIdx, nb.F)
	}
	if nb.F {
		f |= bF
	}
	shift := uint(way) * 4
	c.meta[setIdx] = c.meta[setIdx]&^(uint64(nibbleMask)<<shift) | f<<shift
	c.lru[setIdx] = promote(c.lru[setIdx], way)
	if setIdx == c.memoSet {
		c.memoOK = false
	}
	c.stats.Fills++
	return victim
}

// Insert is victim selection plus Fill: it installs a block for address a
// (with the given state) into its set, returning the evicted block if any.
func (c *Cache) Insert(a addr.Addr, nb Block) (victim Block) {
	s := uint32((uint64(a) >> c.offBits) & c.idxMask)
	nb.Tag = uint64(a) >> c.tagShift
	return c.Fill(s, c.victimWay(s), nb)
}

// InsertAt installs a block with an explicit tag into an explicit set —
// used for flipped-index cooperative fills, where the target set is not
// derived from the block's own address.
func (c *Cache) InsertAt(setIdx uint32, nb Block) (victim Block) {
	return c.Fill(setIdx, c.victimWay(setIdx), nb)
}

// clearWay invalidates (setIdx, way), maintaining the CC occupancy index.
// The caller has already read the block and knows it is valid.
func (c *Cache) clearWay(setIdx uint32, way int, old Block) {
	if old.CC {
		c.ccDec(setIdx, old.F)
	}
	c.meta[setIdx] &^= uint64(nibbleMask) << (uint(way) * 4)
	if setIdx == c.memoSet {
		c.memoOK = false
	}
	c.stats.Invalidations++
}

// InvalidateWay invalidates (setIdx, way) and returns the block that was
// there.
func (c *Cache) InvalidateWay(setIdx uint32, way int) Block {
	old := c.blockAt(setIdx, way)
	if old.Valid {
		c.clearWay(setIdx, way, old)
	}
	return old
}

// Invalidate removes a's block from its original index, returning it.
// found is false when the block was not present.
func (c *Cache) Invalidate(a addr.Addr) (old Block, found bool) {
	s := c.Index(a)
	if w := c.matchWay(s, c.Tag(a)); w >= 0 {
		old = c.blockAt(s, w)
		c.clearWay(s, w, old)
		return old, true
	}
	return Block{}, false
}

// SetView calls fn for each valid block of set setIdx, in way order. fn may
// not mutate the cache. It exists for the scheme controllers and tests to
// inspect set contents (e.g. dropping stranded CC blocks on a G/T flip).
func (c *Cache) SetView(setIdx uint32, fn func(way int, b Block)) {
	for v := c.meta[setIdx] & c.waySel; v != 0; v &= v - 1 {
		w := bits.TrailingZeros64(v) >> 2
		fn(w, c.blockAt(setIdx, w))
	}
}

// DropWhere invalidates every block in set setIdx matched by pred and
// returns how many were dropped.
func (c *Cache) DropWhere(setIdx uint32, pred func(b Block) bool) int {
	n := 0
	for v := c.meta[setIdx] & c.waySel; v != 0; v &= v - 1 {
		w := bits.TrailingZeros64(v) >> 2
		if b := c.blockAt(setIdx, w); pred(b) {
			c.clearWay(setIdx, w, b)
			n++
		}
	}
	return n
}

// LRUOrder returns the ways of set setIdx ordered from MRU to LRU,
// considering only valid lines — a read of the rank word. Used by tests
// asserting exact-LRU behaviour and by the stack-distance cross-checks.
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

// Flush invalidates every line (without write-back side effects) and is
// used between characterization warm-up and measurement windows.
func (c *Cache) Flush() {
	for s := range c.meta {
		c.meta[s] = 0
		c.lru[s] = c.lruInit
		c.ccCnt[s] = 0
	}
	for i := range c.ccSets {
		c.ccSets[i] = 0
	}
	c.memoOK = false
}
