// Package schemes implements the last-level-cache management schemes the
// paper compares: the private baseline (L2P), the shared organization
// (L2S), eviction-driven Cooperative Caching at fixed spill probabilities
// (CC, Chang & Sohi [7]), Dynamic Spill-Receive (DSR, Qureshi [8]), and
// SNUG, the paper's contribution, built from the demand monitor and
// placement function of internal/core. The three cooperative schemes share
// one access path (coop) and differ only in their policy: which clean
// victims spill, where a peer takes them, and where a retrieval searches.
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

// hierarchy is the below-L1 plumbing every controller builds on: per-core
// L2 slices (L2S's banks), the snoop bus, one write buffer per slice, and
// DRAM.
type hierarchy struct {
	cfg    config.System
	geom   addr.Geometry
	slices []*cache.Cache
	wb     []*mem.WriteBuffer
	bus    *bus.Bus
	dram   *mem.DRAM

	perCore []CoreAccessStats
}

// newHierarchy builds the private-slice hierarchy for cfg.
func newHierarchy(cfg config.System) *hierarchy {
	g := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	h := &hierarchy{
		cfg:     cfg,
		geom:    g,
		slices:  make([]*cache.Cache, cfg.Cores),
		wb:      make([]*mem.WriteBuffer, cfg.Cores),
		bus:     bus.MustNew(cfg.Mem.BusWidthBytes, cfg.Mem.BusSpeedRatio, cfg.Mem.BusArbCycles, cfg.Mem.L2Slice.BlockBytes),
		dram:    mem.MustDRAM(int64(cfg.Mem.DRAMLat)),
		perCore: make([]CoreAccessStats, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.slices[i] = cache.MustNew(g, cfg.Mem.L2Slice.Ways)
		h.wb[i] = mem.MustWriteBuffer(cfg.Mem.WriteBufEntries)
	}
	return h
}

// record counts an access served from src for core.
func (h *hierarchy) record(core int, src Source) {
	h.perCore[core].BySource[src]++
}

// fetchDRAM models a demand fetch: request beat on the address path, DRAM
// access, data beats back. Returns the data-available cycle.
func (h *hierarchy) fetchDRAM(now int64) int64 {
	t := h.bus.Acquire(now, bus.KindSnoop)
	t = h.dram.Read(t)
	return h.bus.Acquire(t, bus.KindData)
}

// issueWriteback is the write-buffer drain path: bus transfer then DRAM
// write.
func (h *hierarchy) issueWriteback(start int64) int64 {
	t := h.bus.Acquire(start, bus.KindWriteback)
	return h.dram.Write(t)
}

// postWriteback queues a dirty block into slice's write buffer at cycle now.
func (h *hierarchy) postWriteback(slice int, now int64, block addr.Addr) {
	h.wb[slice].Insert(now, block, h.issueWriteback)
}

// drainWriteBuffers opportunistically retires pending write-backs up to
// cycle now. Called from Tick.
func (h *hierarchy) drainWriteBuffers(now int64) {
	for _, wb := range h.wb {
		wb.Drain(now, h.issueWriteback)
	}
}

// victimAddr reconstructs a victim block's address from its residence set.
// Cooperative blocks stored with a flipped index (F set) recover their
// original index by flipping the bit back.
func (h *hierarchy) victimAddr(v cache.Block, setIdx uint32) addr.Addr {
	idx := setIdx
	if v.CC && v.F {
		idx = addr.FlipLastIndexBit(setIdx)
	}
	return h.geom.Rebuild(v.Tag, idx)
}

// retire drains a dirty victim evicted from slice's set setIdx through the
// slice's write buffer; clean victims vanish.
func (h *hierarchy) retire(slice int, now int64, v cache.Block, setIdx uint32) {
	if v.Valid && v.Dirty {
		h.postWriteback(slice, now, h.victimAddr(v, setIdx))
	}
}

// takeBack checks core's write buffer for a's block and, on a hit, removes
// the pending entry: the block re-enters the slice, still dirty, and the
// caller installs it and retires the victim.
func (h *hierarchy) takeBack(core int, a addr.Addr) bool {
	return h.wb[core].TakeBack(h.geom.Block(a))
}

// writebackL1 handles an L1 dirty victim: sets the dirty bit if the block
// is resident in the slice, otherwise posts it straight to the write
// buffer.
func (h *hierarchy) writebackL1(core int, now int64, a addr.Addr) {
	if h.slices[core].Lookup(a, true) {
		return
	}
	// Not resident (non-inclusive corner): post the block to memory.
	h.postWriteback(core, now, h.geom.Block(a))
}

// report assembles the fields every scheme shares.
func (h *hierarchy) report(scheme string) Report {
	r := Report{
		Scheme:  scheme,
		PerCore: append([]CoreAccessStats(nil), h.perCore...),
		Bus:     h.bus.Stats(),
		DRAM:    h.dram.Stats(),
	}
	for _, s := range h.slices {
		r.Slices = append(r.Slices, s.Stats())
	}
	for _, wb := range h.wb {
		r.WB = append(r.WB, wb.Stats())
	}
	return r
}
