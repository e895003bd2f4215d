// Package schemes implements the last-level-cache management schemes the
// paper compares: the private baseline (L2P), the shared organization
// (L2S), eviction-driven Cooperative Caching at fixed spill probabilities
// (CC, Chang & Sohi [7]), and Dynamic Spill-Receive (DSR, Qureshi [8]).
// The SNUG controller lives in internal/core (it is the paper's
// contribution) and implements the same Controller interface.
//
// A Controller owns everything below the private L1s: the L2 slices or
// banks, the snoop bus, the write-back buffers and the DRAM. The multi-core
// driver (internal/cmp) calls Access for every L1 miss and Tick once per
// quantum.
package schemes

import (
	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/mem"
)

// Source labels where an access was served from, for accounting.
type Source uint8

const (
	// SrcLocalL2 is a hit in the requesting core's slice (or local bank).
	SrcLocalL2 Source = iota
	// SrcRemoteL2 is a hit in a peer slice (cooperative block) or remote bank.
	SrcRemoteL2
	// SrcWriteBuffer is a direct read from the write-back buffer.
	SrcWriteBuffer
	// SrcDRAM is an off-chip access.
	SrcDRAM

	numSources
)

// String returns the source's name.
func (s Source) String() string {
	switch s {
	case SrcLocalL2:
		return "local-l2"
	case SrcRemoteL2:
		return "remote-l2"
	case SrcWriteBuffer:
		return "write-buffer"
	case SrcDRAM:
		return "dram"
	default:
		return "unknown"
	}
}

// Controller is one LLC management scheme driving the entire below-L1
// hierarchy of the CMP.
//
// Ownership contract: a Controller owns all cross-core mutable state of
// the simulation (slices, bus, write buffers, DRAM, scheme metadata), and
// every mutation of that state must happen inside Access / WritebackL1 /
// Tick. The driver (internal/cmp) calls them from its single driving
// goroutine, so implementations are never called concurrently and need no
// locking.
type Controller interface {
	// Name identifies the scheme (e.g. "L2P", "SNUG").
	Name() string
	// Access serves a data access from core at cycle now and returns the
	// cycle the data is available.
	Access(core int, now int64, a addr.Addr, write bool) int64
	// WritebackL1 accepts a dirty L1 victim (posted; no completion time).
	WritebackL1(core int, now int64, a addr.Addr)
	// Tick advances scheme-internal time (epoch transitions, buffer
	// drains). Called once per simulation quantum with the quantum's end.
	Tick(now int64)
	// Report returns accumulated statistics.
	Report() Report
}

// CoreAccessStats counts accesses by serving source for one core.
type CoreAccessStats struct {
	BySource [numSources]int64
}

// Total returns the core's total L2-level accesses.
func (c CoreAccessStats) Total() int64 {
	var t int64
	for _, v := range c.BySource {
		t += v
	}
	return t
}

// Report is a scheme's accumulated activity.
type Report struct {
	Scheme  string
	PerCore []CoreAccessStats
	Slices  []cache.Stats

	Spills          int64 // blocks spilled into a peer cache
	SpillNoTaker    int64 // spill attempts dropped (no willing host)
	Retrievals      int64 // retrieval broadcasts
	RetrievalHits   int64 // retrievals served by a peer
	StrandedDropped int64 // SNUG: cooperative blocks dropped at a G/T re-latch

	Bus  bus.Stats
	DRAM mem.DRAMStats
	WB   []mem.WriteBufferStats
}

// OffChip returns total DRAM-served demand accesses.
func (r Report) OffChip() int64 {
	var t int64
	for _, c := range r.PerCore {
		t += c.BySource[SrcDRAM]
	}
	return t
}

// Hierarchy is the shared below-L1 plumbing: per-core L2 slices (for the
// private-cache schemes), the snoop bus, write buffers and DRAM. Scheme
// controllers embed it.
type Hierarchy struct {
	Cfg    config.System
	Geom   addr.Geometry
	Slices []*cache.Cache
	WB     []*mem.WriteBuffer
	Bus    *bus.Bus
	DRAM   *mem.DRAM

	PerCore []CoreAccessStats
}

// NewHierarchy builds the private-slice hierarchy for cfg.
func NewHierarchy(cfg config.System) *Hierarchy {
	g := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	h := &Hierarchy{
		Cfg:     cfg,
		Geom:    g,
		Slices:  make([]*cache.Cache, cfg.Cores),
		WB:      make([]*mem.WriteBuffer, cfg.Cores),
		Bus:     bus.MustNew(cfg.Mem.BusWidthBytes, cfg.Mem.BusSpeedRatio, cfg.Mem.BusArbCycles, cfg.Mem.L2Slice.BlockBytes),
		DRAM:    mem.MustDRAM(int64(cfg.Mem.DRAMLat), 0, cfg.Mem.L2Slice.BlockBytes),
		PerCore: make([]CoreAccessStats, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.Slices[i] = cache.MustNew(g, cfg.Mem.L2Slice.Ways)
		h.WB[i] = mem.MustWriteBuffer(cfg.Mem.WriteBufEntries)
	}
	return h
}

// Record counts an access served from src for core.
func (h *Hierarchy) Record(core int, src Source) {
	h.PerCore[core].BySource[src]++
}

// FetchDRAM models a demand fetch: request beat on the address path, DRAM
// access, data beats back. Returns the data-available cycle.
func (h *Hierarchy) FetchDRAM(now int64, a addr.Addr) int64 {
	t := h.Bus.Acquire(now, bus.KindSnoop)
	t = h.DRAM.Read(t, a)
	return h.Bus.Acquire(t, bus.KindData)
}

// FetchDRAMAfterSnoop is FetchDRAM for the cooperative schemes, whose
// retrieval broadcast already carried the address: the memory controller
// snoops the same beat, so no second request beat is charged.
func (h *Hierarchy) FetchDRAMAfterSnoop(reqDone int64, a addr.Addr) int64 {
	t := h.DRAM.Read(reqDone, a)
	return h.Bus.Acquire(t, bus.KindData)
}

// issueWriteback is the write-buffer drain path: bus transfer then DRAM
// write.
func (h *Hierarchy) issueWriteback(start int64, block addr.Addr) int64 {
	t := h.Bus.Acquire(start, bus.KindWriteback)
	return h.DRAM.Write(t, block)
}

// PostWriteback queues a dirty block into core's write buffer at cycle now
// and returns the cycle the caller may proceed (delayed only when the
// buffer is full).
func (h *Hierarchy) PostWriteback(core int, now int64, block addr.Addr) int64 {
	return h.WB[core].Insert(now, block, h.issueWriteback)
}

// DrainWriteBuffers opportunistically retires pending write-backs up to
// cycle now. Called from Tick.
func (h *Hierarchy) DrainWriteBuffers(now int64) {
	for _, wb := range h.WB {
		wb.Drain(now, h.issueWriteback)
	}
}

// VictimAddr reconstructs a victim block's address from its residence set.
// Cooperative blocks stored with a flipped index (F set) recover their
// original index by flipping the bit back.
func (h *Hierarchy) VictimAddr(v cache.Block, setIdx uint32) addr.Addr {
	idx := setIdx
	if v.CC && v.F {
		idx = addr.FlipLastIndexBit(setIdx)
	}
	return h.Geom.Rebuild(v.Tag, idx)
}

// RetireVictim performs the scheme-independent part of victim handling:
// dirty blocks enter the owner's write buffer (dirty blocks are never
// cooperative — only clean blocks are spilled), clean blocks vanish.
// It returns the cycle the caller may proceed.
func (h *Hierarchy) RetireVictim(core int, now int64, v cache.Block, setIdx uint32) int64 {
	if !v.Valid || !v.Dirty {
		return now
	}
	return h.PostWriteback(core, now, h.VictimAddr(v, setIdx))
}

// DirectReadProbe checks core's write buffer for a's block and, on a hit,
// removes the pending entry (the block re-enters the cache, making the
// cached copy newest again). The caller is responsible for installing the
// block — still dirty — into the slice and handling the victim, so that
// scheme-specific bookkeeping (shadow exclusivity, spilling) stays
// consistent. Returns whether it hit and the data-available cycle.
func (h *Hierarchy) DirectReadProbe(core int, now int64, a addr.Addr) (bool, int64) {
	block := h.Geom.Block(a)
	if !h.WB[core].ReadHit(block) {
		return false, 0
	}
	h.WB[core].TakeBack(block)
	return true, now + int64(h.Cfg.Mem.L2Lat) + 1
}

// MarkDirtyOrBuffer handles an L1 dirty victim: sets the dirty bit if the
// block is resident in the slice, otherwise posts it straight to the write
// buffer.
func (h *Hierarchy) MarkDirtyOrBuffer(core int, now int64, a addr.Addr) {
	if h.Slices[core].Lookup(a, true) {
		return
	}
	// Not resident (non-inclusive corner): post the block to memory.
	h.PostWriteback(core, now, h.Geom.Block(a))
}

// BaseReport assembles the fields every scheme shares.
func (h *Hierarchy) BaseReport(scheme string) Report {
	r := Report{
		Scheme:  scheme,
		PerCore: append([]CoreAccessStats(nil), h.PerCore...),
		Bus:     h.Bus.Stats(),
		DRAM:    h.DRAM.Stats(),
	}
	for _, s := range h.Slices {
		r.Slices = append(r.Slices, s.Stats())
	}
	for _, wb := range h.WB {
		r.WB = append(r.WB, wb.Stats())
	}
	return r
}
