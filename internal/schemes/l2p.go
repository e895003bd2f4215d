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
	h *Hierarchy
}

// NewL2P builds the private-L2 baseline.
func NewL2P(cfg config.System) *L2P {
	return &L2P{h: NewHierarchy(cfg)}
}

// Name implements Controller.
func (p *L2P) Name() string { return "L2P" }

// Access implements Controller.
func (p *L2P) Access(core int, now int64, a addr.Addr, write bool) int64 {
	h := p.h
	l2Lat := int64(h.Cfg.Mem.L2Lat)
	if h.Slices[core].Lookup(a, write) {
		h.Record(core, SrcLocalL2)
		return now + l2Lat
	}
	if ok, done := h.DirectReadProbe(core, now, a); ok {
		v := h.Slices[core].Insert(a, cache.Block{Dirty: true, Owner: int8(core)})
		h.RetireVictim(core, now, v, h.Geom.Index(a))
		h.Record(core, SrcWriteBuffer)
		return done
	}
	done := h.FetchDRAM(now+l2Lat, a)
	v := h.Slices[core].Insert(a, cache.Block{Dirty: write, Owner: int8(core)})
	h.RetireVictim(core, now, v, h.Geom.Index(a))
	h.Record(core, SrcDRAM)
	return done
}

// WritebackL1 implements Controller.
func (p *L2P) WritebackL1(core int, now int64, a addr.Addr) {
	p.h.MarkDirtyOrBuffer(core, now, a)
}

// Tick implements Controller.
func (p *L2P) Tick(now int64) { p.h.DrainWriteBuffers(now) }

// Report implements Controller.
func (p *L2P) Report() Report { return p.h.BaseReport(p.Name()) }
