package schemes

import (
	"fmt"

	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/stats"
)

// CC is eviction-driven Cooperative Caching (Chang & Sohi [7]): when a
// clean local victim is evicted it is spilled, with a fixed probability,
// into the same-index set of a peer slice, regardless of whether either
// side benefits — the capacity-blindness the paper criticizes. Spilled
// blocks get one chance (a cooperative block evicted from its host is
// dropped, never re-spilled). A local miss broadcasts a retrieval; a peer
// holding the block forwards it and invalidates its copy.
//
// CC(Best) in the evaluation is CC run at each spill probability in
// {0, 25, 50, 75, 100}% with the best result selected per workload (§4.1).
type CC struct {
	h        *Hierarchy
	spillPct int
	rng      *stats.RNG
	nextHost []int // per-core round-robin spill pointer

	spills       int64
	spillNoTaker int64
	retrievals   int64
	retrievalHit int64
}

// NewCC builds cooperative caching spilling clean victims with probability
// spillPct percent (the spec parameter of "CC(75%)").
func NewCC(cfg config.System, spillPct int) *CC {
	c := &CC{
		h:        NewHierarchy(cfg),
		spillPct: spillPct,
		rng:      stats.NewRNG(cfg.Seed ^ 0xcc),
		nextHost: make([]int, cfg.Cores),
	}
	for i := range c.nextHost {
		c.nextHost[i] = (i + 1) % cfg.Cores
	}
	return c
}

// Name implements Controller.
func (c *CC) Name() string { return fmt.Sprintf("CC(%d%%)", c.spillPct) }

// Access implements Controller.
func (c *CC) Access(core int, now int64, a addr.Addr, write bool) int64 {
	h := c.h
	l2Lat := int64(h.Cfg.Mem.L2Lat)
	if h.Slices[core].Lookup(a, write) {
		h.Record(core, SrcLocalL2)
		return now + l2Lat
	}
	if ok, done := h.DirectReadProbe(core, now, a); ok {
		v := h.Slices[core].Insert(a, cache.Block{Dirty: true, Owner: int8(core)})
		c.handleVictim(core, now, v, h.Geom.Index(a))
		h.Record(core, SrcWriteBuffer)
		return done
	}

	// Retrieval broadcast: the snoop rides the bus in parallel with the
	// memory fetch; a peer hit supplies the block at remote-L2 latency.
	c.retrievals++
	reqDone := h.Bus.Acquire(now+l2Lat, bus.KindSnoop)
	idx := h.Geom.Index(a)
	tag := h.Geom.Tag(a)
	for off := 1; off < h.Cfg.Cores; off++ {
		peer := (core + off) % h.Cfg.Cores
		if found, way := h.Slices[peer].FindCC(idx, tag, false); found {
			blk := h.Slices[peer].InvalidateWay(idx, way)
			c.retrievalHit++
			dataAt := h.Bus.Acquire(now+l2Lat, bus.KindData)
			done := maxI64(now+l2Lat+int64(h.Cfg.Mem.RemoteLat), dataAt)
			v := h.Slices[core].Insert(a, cache.Block{Dirty: write || blk.Dirty, Owner: int8(core)})
			c.handleVictim(core, now, v, idx)
			h.Record(core, SrcRemoteL2)
			return done
		}
	}

	done := h.FetchDRAMAfterSnoop(reqDone, a)
	v := h.Slices[core].Insert(a, cache.Block{Dirty: write, Owner: int8(core)})
	c.handleVictim(core, now, v, idx)
	h.Record(core, SrcDRAM)
	return done
}

// handleVictim spills eligible victims and retires the rest.
func (c *CC) handleVictim(core int, now int64, v cache.Block, setIdx uint32) {
	if !v.Valid {
		return
	}
	if v.CC || v.Dirty {
		// One-chance rule: cooperative victims vanish; dirty victims go to
		// the write buffer.
		c.h.RetireVictim(core, now, v, setIdx)
		return
	}
	if c.spillPct == 0 || !c.rng.Bool(float64(c.spillPct)/100) {
		return
	}
	c.spill(core, now, v, setIdx)
}

// spill pushes a clean local victim into the same-index set of the next
// peer in round-robin order. Baseline CC hosts accept unconditionally.
func (c *CC) spill(core int, now int64, v cache.Block, setIdx uint32) {
	h := c.h
	host := c.nextHost[core]
	c.nextHost[core] = (host + 1) % h.Cfg.Cores
	if host == core {
		host = (host + 1) % h.Cfg.Cores
		c.nextHost[core] = (host + 1) % h.Cfg.Cores
	}
	h.Bus.Acquire(now, bus.KindSnoop)
	h.Bus.Acquire(now, bus.KindData)
	hv := h.Slices[host].InsertAt(setIdx, cache.Block{
		Tag: v.Tag, CC: true, F: false, Owner: v.Owner,
	})
	c.spills++
	// Host victims never cascade: cooperative ones vanish, dirty locals go
	// to the host's write buffer.
	if hv.Valid && hv.Dirty && !hv.CC {
		h.PostWriteback(host, now, h.VictimAddr(hv, setIdx))
	}
}

// WritebackL1 implements Controller.
func (c *CC) WritebackL1(core int, now int64, a addr.Addr) {
	c.h.MarkDirtyOrBuffer(core, now, a)
}

// Tick implements Controller.
func (c *CC) Tick(now int64) { c.h.DrainWriteBuffers(now) }

// Report implements Controller.
func (c *CC) Report() Report {
	r := c.h.BaseReport(c.Name())
	r.Spills = c.spills
	r.SpillNoTaker = c.spillNoTaker
	r.Retrievals = c.retrievals
	r.RetrievalHits = c.retrievalHit
	return r
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
