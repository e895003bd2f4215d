// Package addr provides address arithmetic shared by every cache level:
// block/set/tag decomposition, reconstruction of addresses from (tag, index)
// pairs, and per-core address-space separation for multiprogrammed
// workloads. (The shared L2S organization banks its own addresses.)
//
// The paper (Table 2/Table 4) uses 32-bit physical addresses, 64-byte blocks
// and 1024-set L2 caches. All of those are parameters here; the arithmetic
// itself is width-agnostic and carried in uint64.
package addr

import "fmt"

// Addr is a byte address. Block addresses are Addr values with the offset
// bits cleared.
type Addr uint64

// coreShift is the bit position where the owning core's ID is folded into
// an address. Multiprogrammed workloads have disjoint address spaces (the
// paper's stress tests explicitly exclude data sharing), which we guarantee
// by giving each core a distinct high-order bit pattern. Bit 40 is far above
// the 32-bit addresses the paper configures, so tags remain unique across
// cores while the low-order set-index arithmetic is unaffected.
const coreShift = 40

// ForCore returns a rebased into core's private address space.
func ForCore(core int, a Addr) Addr {
	return a | Addr(core+1)<<coreShift
}

// Core extracts the core ID encoded by ForCore, or -1 if none.
func Core(a Addr) int {
	return int(a>>coreShift) - 1
}

// Geometry describes the address mapping of one cache array: block size and
// number of sets. It precomputes shift/mask values so the hot-path methods
// are branch-free.
type Geometry struct {
	blockBytes int
	sets       int
	offBits    uint
	idxBits    uint
	idxMask    uint64
}

// NewGeometry builds a Geometry. blockBytes and sets must be powers of two.
func NewGeometry(blockBytes, sets int) (Geometry, error) {
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("addr: block size %d is not a positive power of two", blockBytes)
	}
	if sets <= 0 || sets&(sets-1) != 0 {
		return Geometry{}, fmt.Errorf("addr: set count %d is not a positive power of two", sets)
	}
	g := Geometry{
		blockBytes: blockBytes,
		sets:       sets,
		offBits:    uint(log2(blockBytes)),
		idxBits:    uint(log2(sets)),
	}
	g.idxMask = uint64(sets - 1)
	return g, nil
}

// MustGeometry is NewGeometry but panics on invalid parameters. Intended for
// package-level defaults and tests where the parameters are constants.
func MustGeometry(blockBytes, sets int) Geometry {
	g, err := NewGeometry(blockBytes, sets)
	if err != nil {
		panic(err)
	}
	return g
}

// BlockBytes returns the block size in bytes.
func (g Geometry) BlockBytes() int { return g.blockBytes }

// Sets returns the number of sets.
func (g Geometry) Sets() int { return g.sets }

// OffsetBits returns the number of block-offset bits.
func (g Geometry) OffsetBits() uint { return g.offBits }

// IndexBits returns the number of set-index bits.
func (g Geometry) IndexBits() uint { return g.idxBits }

// Index returns the set index of a.
func (g Geometry) Index(a Addr) uint32 {
	return uint32((uint64(a) >> g.offBits) & g.idxMask)
}

// Tag returns the tag of a: every address bit above the index field.
func (g Geometry) Tag(a Addr) uint64 {
	return uint64(a) >> (g.offBits + g.idxBits)
}

// Block returns a with the offset bits cleared (the block address).
func (g Geometry) Block(a Addr) Addr {
	return a &^ Addr(g.blockBytes-1)
}

// Rebuild reconstructs the block address for a (tag, index) pair. It is the
// inverse of Tag/Index composition for block-aligned addresses, and is used
// by the index-bit-flipping scheme to recover a cooperatively cached block's
// original address from its stored tag and the flipped set index.
func (g Geometry) Rebuild(tag uint64, index uint32) Addr {
	return Addr(tag<<(g.offBits+g.idxBits) | uint64(index)<<g.offBits)
}

// FlipLastIndexBit returns the set index with its least-significant bit
// flipped — the pairing relation of the SNUG index-bit-flipping scheme
// (paper §3.2): peer sets i and i^1 form a potential spill/receive group.
func FlipLastIndexBit(index uint32) uint32 { return index ^ 1 }

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
