package schemes

import (
	"snug/internal/addr"
	"snug/internal/config"
)

// L2P is the private baseline: each core owns its slice outright, with no
// capacity sharing of any kind. Every figure in the paper is normalized to
// this organization. It runs coop's access path under a policy that
// spills no victim and searches no peer, so it computes what CC(0%) does.
type L2P struct{ coop }

// NewL2P builds the private-L2 baseline.
func NewL2P(cfg config.System) *L2P {
	return &L2P{newCoop(cfg, "L2P", private{}, cfg.Mem.RemoteLat)}
}

// Report implements Controller. L2P asks no peer for a block, so it counts
// no retrieval: the snoop beat of each miss is only the memory request.
func (p *L2P) Report() Report {
	r := p.coop.Report()
	r.Retrievals = 0
	return r
}

// private is L2P's policy: no victim spills, and no peer holds a block.
type private struct{}

func (private) spillsFrom(int, uint32) bool             { return false }
func (private) place(int, uint32) (uint32, bool, bool)  { return 0, false, false }
func (private) search(int, uint32) (uint32, bool, bool) { return 0, false, false }
func (private) hit(int, addr.Addr)                      {}
func (private) miss(int, addr.Addr)                     {}
func (private) offChip(int, uint32)                     {}
func (private) evicted(int, uint32, uint64)             {}
