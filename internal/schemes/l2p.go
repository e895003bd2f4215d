package schemes

import (
	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/config"
)

// L2P is the private baseline: each core owns its slice outright, with no
// capacity sharing of any kind. Every figure in the paper is normalized to
// this organization.
type L2P struct {
	h *hierarchy
}

// NewL2P builds the private-L2 baseline.
func NewL2P(cfg config.System) *L2P {
	return &L2P{h: newHierarchy(cfg)}
}

// Name implements Controller.
func (p *L2P) Name() string { return "L2P" }

// Access implements Controller.
func (p *L2P) Access(core int, now int64, a addr.Addr, write bool) int64 {
	h := p.h
	l2Lat := int64(h.cfg.Mem.L2Lat)
	if h.slices[core].Lookup(a, write) {
		h.record(core, SrcLocalL2)
		return now + l2Lat
	}
	if h.takeBack(core, a) {
		v := h.slices[core].Insert(a, cache.Block{Dirty: true, Owner: int8(core)})
		h.retire(core, now, v, h.geom.Index(a))
		h.record(core, SrcWriteBuffer)
		return now + l2Lat + 1
	}
	done := h.fetchDRAM(now + l2Lat)
	v := h.slices[core].Insert(a, cache.Block{Dirty: write, Owner: int8(core)})
	h.retire(core, now, v, h.geom.Index(a))
	h.record(core, SrcDRAM)
	return done
}

// WritebackL1 implements Controller.
func (p *L2P) WritebackL1(core int, now int64, a addr.Addr) {
	p.h.writebackL1(core, now, a)
}

// Tick implements Controller.
func (p *L2P) Tick(now int64) { p.h.drainWriteBuffers(now) }

// Report implements Controller.
func (p *L2P) Report() Report { return p.h.report(p.Name()) }
