package core

import (
	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/schemes"
)

// Stage is the SNUG operating stage (Figure 5).
type Stage uint8

const (
	// StageIdentify is Stage I: per-set capacity-demand monitoring trains
	// the saturating counters; retrievals are served but no cache accepts
	// spills.
	StageIdentify Stage = iota
	// StageGroup is Stage II: the latched G/T vectors group peer sets for
	// spilling and receiving.
	StageGroup
)

// String names the stage.
func (s Stage) String() string {
	if s == StageIdentify {
		return "identify"
	}
	return "group"
}

// SNUGStats aggregates SNUG-specific activity.
type SNUGStats struct {
	Spills          int64
	SpillsCase1     int64 // placed at the same index (f=0)
	SpillsCase2     int64 // placed at the flipped index (f=1)
	SpillNoTaker    int64 // Case 3 at every peer: spill dropped
	Retrievals      int64
	RetrievalHits   int64
	StrandedDropped int64
	StageSwitches   int64
}

// SNUG is the paper's proposed L2 controller: per-set demand monitoring
// (Monitor), G/T classification, and index-bit-flipping grouped cooperative
// caching over the private-slice hierarchy. It implements
// schemes.Controller.
type SNUG struct {
	h   *schemes.Hierarchy
	mon []*Monitor

	stage      Stage
	stageStart int64
	nextHost   []int

	stats SNUGStats
}

// SNUG registers itself in the scheme-spec registry so that any package
// linking the controller can build it via schemes.Parse("SNUG"). The
// registration lives here rather than in internal/schemes because schemes
// cannot import core (core embeds schemes.Hierarchy).
func init() {
	schemes.Register(schemes.Family{
		Name: "SNUG",
		New: func(_ schemes.Spec, cfg config.System) (schemes.Controller, error) {
			return New(cfg), nil
		},
	})
}

// New builds the SNUG controller for cfg.
func New(cfg config.System) *SNUG {
	h := schemes.NewHierarchy(cfg)
	s := &SNUG{
		h:        h,
		mon:      make([]*Monitor, cfg.Cores),
		stage:    StageIdentify,
		nextHost: make([]int, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		s.mon[i] = NewMonitor(h.Geom, cfg.SNUG.ShadowWays, cfg.SNUG.CounterBits, cfg.SNUG.PDivisor)
		s.nextHost[i] = (i + 1) % cfg.Cores
	}
	return s
}

// Name implements schemes.Controller.
func (s *SNUG) Name() string { return "SNUG" }

// Stage returns the current operating stage.
func (s *SNUG) Stage() Stage { return s.stage }

// Monitor returns core's demand monitor (tests and reporting).
func (s *SNUG) Monitor(core int) *Monitor { return s.mon[core] }

// Stats returns SNUG-specific counters.
func (s *SNUG) Stats() SNUGStats { return s.stats }

// Access implements schemes.Controller.
func (s *SNUG) Access(core int, now int64, a addr.Addr, write bool) int64 {
	h := s.h
	cfg := &h.Cfg
	l2Lat := int64(cfg.Mem.L2Lat)
	// The demand monitor trains continuously; the G/T vector is re-latched
	// only at Stage I -> II transitions (Figure 5). Stage I's distinct role
	// is that spilling is suspended while the new classification settles.
	const training = true

	if h.Slices[core].Lookup(a, write) {
		if training {
			s.mon[core].OnRealHit(a)
		}
		h.Record(core, schemes.SrcLocalL2)
		return now + l2Lat
	}

	// Shadow check: a revisit of a formerly evicted block invalidates the
	// shadow entry (exclusivity) and, in Stage I, trains the counter.
	s.mon[core].OnMissCheck(a, training)

	if ok, done := h.DirectReadProbe(core, now, a); ok {
		v := h.Slices[core].Insert(a, cache.Block{Dirty: true, Owner: int8(core)})
		s.handleVictim(core, now, v, h.Geom.Index(a))
		h.Record(core, schemes.SrcWriteBuffer)
		return done
	}

	// Retrieval broadcast (allowed in both stages): each peer consults its
	// G/T vector for the same-index and flipped-index entries and performs
	// at most one unambiguous set search (§3.2). FindCC checks the peer's
	// CC occupancy index first, so a peer whose candidate set holds no
	// cooperative block of the requested flip state answers in O(1) — the
	// broadcast costs a counter check per non-holding peer, not a set scan.
	s.stats.Retrievals++
	reqDone := h.Bus.Acquire(now+l2Lat, bus.KindSnoop)
	idx := h.Geom.Index(a)
	tag := h.Geom.Tag(a)
	flip := cfg.SNUG.IndexFlip
	for off := 1; off < cfg.Cores; off++ {
		peer := (core + off) % cfg.Cores
		pl, ok := ClassifyRetrieve(s.mon[peer].GT(), idx, flip)
		if !ok {
			continue
		}
		found, way := h.Slices[peer].FindCC(pl.SetIdx, tag, pl.Flipped)
		if !found {
			continue
		}
		// Forward and invalidate the cooperative copy (§3.3).
		h.Slices[peer].InvalidateWay(pl.SetIdx, way)
		s.stats.RetrievalHits++
		dataAt := h.Bus.Acquire(now+l2Lat, bus.KindData)
		done := maxI64(now+l2Lat+int64(cfg.Mem.SNUGRemote), dataAt)
		v := h.Slices[core].Insert(a, cache.Block{Dirty: write, Owner: int8(core)})
		s.handleVictim(core, now, v, idx)
		h.Record(core, schemes.SrcRemoteL2)
		return done
	}

	done := h.FetchDRAMAfterSnoop(reqDone, a)
	v := h.Slices[core].Insert(a, cache.Block{Dirty: write, Owner: int8(core)})
	s.handleVictim(core, now, v, idx)
	h.Record(core, schemes.SrcDRAM)
	return done
}

// handleVictim processes a block evicted from (core, setIdx): locally
// owned victims are shadowed; dirty ones drain through the write buffer;
// clean ones from taker sets spill during Stage II; cooperative victims
// vanish (one-chance rule).
func (s *SNUG) handleVictim(core int, now int64, v cache.Block, setIdx uint32) {
	if !v.Valid {
		return
	}
	if v.CC {
		return
	}
	s.mon[core].OnLocalEvict(setIdx, v.Tag)
	if v.Dirty {
		s.h.PostWriteback(core, now, s.h.VictimAddr(v, setIdx))
		return
	}
	if s.stage == StageGroup && s.mon[core].GT().Taker(setIdx) {
		s.spill(core, now, v, setIdx)
	}
}

// spill broadcasts a CC spilling request for a clean taker-set victim.
// Peers evaluate Figure 8's three cases against their G/T vectors in bus
// (round-robin) order; the first responder retains the block.
func (s *SNUG) spill(core int, now int64, v cache.Block, setIdx uint32) {
	h := s.h
	flip := h.Cfg.SNUG.IndexFlip
	start := s.nextHost[core]
	for off := 0; off < h.Cfg.Cores-1; off++ {
		peer := (start + off) % h.Cfg.Cores
		if peer == core {
			peer = (peer + 1) % h.Cfg.Cores
		}
		pl := ClassifySpill(s.mon[peer].GT(), setIdx, flip)
		if pl.Case == SpillNone {
			continue
		}
		s.nextHost[core] = (peer + 1) % h.Cfg.Cores
		h.Bus.Acquire(now, bus.KindSnoop)
		h.Bus.Acquire(now, bus.KindData)
		hv := h.Slices[peer].InsertAt(pl.SetIdx, cache.Block{
			Tag: v.Tag, CC: true, F: pl.Flipped, Owner: v.Owner,
		})
		s.stats.Spills++
		if pl.Case == SpillSameIndex {
			s.stats.SpillsCase1++
		} else {
			s.stats.SpillsCase2++
		}
		// Host-side victim: cooperative blocks vanish; local host victims
		// are shadowed by the host's monitor and drain if dirty. They are
		// not re-spilled (no cascades).
		if hv.Valid && !hv.CC {
			s.mon[peer].OnLocalEvict(pl.SetIdx, hv.Tag)
			if hv.Dirty {
				h.PostWriteback(peer, now, h.VictimAddr(hv, pl.SetIdx))
			}
		}
		return
	}
	s.stats.SpillNoTaker++
}

// WritebackL1 implements schemes.Controller.
func (s *SNUG) WritebackL1(core int, now int64, a addr.Addr) {
	s.h.MarkDirtyOrBuffer(core, now, a)
}

// Tick implements schemes.Controller: drains write buffers and advances the
// two-stage schedule of Figure 5.
func (s *SNUG) Tick(now int64) {
	s.h.DrainWriteBuffers(now)
	for now >= s.stageStart+s.stageLen() {
		s.stageStart += s.stageLen()
		if s.stage == StageIdentify {
			s.latch()
			s.stage = StageGroup
		} else {
			s.stage = StageIdentify
		}
		s.stats.StageSwitches++
	}
}

// stageLen returns the current stage's duration in cycles.
func (s *SNUG) stageLen() int64 {
	if s.stage == StageIdentify {
		return s.h.Cfg.SNUG.StageICycles
	}
	return s.h.Cfg.SNUG.StageIICycles
}

// latch re-latches every slice's G/T vector from its counters and, when
// configured, drops cooperative blocks stranded unreachable by the new
// classification (see DESIGN.md, "Spill rules"). The stranded sweep walks
// the CC occupancy index instead of every set: only sets actually holding
// cooperative blocks are scanned, and CC-free slices cost nothing.
func (s *SNUG) latch() {
	for core := range s.mon {
		s.mon[core].Latch()
	}
	if !s.h.Cfg.SNUG.DropOnFlip {
		return
	}
	flip := s.h.Cfg.SNUG.IndexFlip
	for core := range s.mon {
		gt := s.mon[core].GT()
		slice := s.h.Slices[core]
		slice.ForEachCCSet(func(setIdx uint32) {
			dropped := slice.DropWhere(setIdx, func(b cache.Block) bool {
				return b.CC && !Reachable(gt, setIdx, b.F, flip)
			})
			s.stats.StrandedDropped += int64(dropped)
		})
	}
}

// Report implements schemes.Controller.
func (s *SNUG) Report() schemes.Report {
	r := s.h.BaseReport(s.Name())
	r.Spills = s.stats.Spills
	r.SpillNoTaker = s.stats.SpillNoTaker
	r.Retrievals = s.stats.Retrievals
	r.RetrievalHits = s.stats.RetrievalHits
	r.StrandedDropped = s.stats.StrandedDropped
	return r
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
