package core

import "snug/internal/addr"

// Place evaluates Figure 8's three cases for a block with original set
// index idx against a peer's G/T vector. It decides both where a spill
// lands and where a retrieval searches (§3.2):
//
//   - Case 1: the same-index set is a giver; the block goes there with f=0.
//   - Case 2: the same-index set is a taker but the set with the last index
//     bit flipped is a giver; the block goes there with f=1. allowFlip=false
//     disables this case for the no-flipping ablation.
//   - Case 3: both candidate sets are takers; ok is false, and the peer
//     neither takes the spill nor searches.
//
// Spill and retrieval consult the same frozen G/T vector within one
// grouping stage, so a block spilled under Case 1 or 2 is found by exactly
// one set search.
func Place(gt *GTVector, idx uint32, allowFlip bool) (set uint32, flipped, ok bool) {
	if gt.Giver(idx) {
		return idx, false, true
	}
	if allowFlip {
		if fl := addr.FlipLastIndexBit(idx); gt.Giver(fl) {
			return fl, true, true
		}
	}
	return 0, false, false
}

// Reachable reports whether a cooperative block residing in set residence
// with flip state flipped would still be found by Place under gt. Used at
// G/T re-latch time to drop stranded blocks (a design decision the paper
// leaves open; see DESIGN.md).
func Reachable(gt *GTVector, residence uint32, flipped bool, allowFlip bool) bool {
	orig := residence
	if flipped {
		orig = addr.FlipLastIndexBit(residence)
	}
	set, f, ok := Place(gt, orig, allowFlip)
	return ok && set == residence && f == flipped
}
