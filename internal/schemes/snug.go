package schemes

import (
	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/core"
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

// SNUG is the paper's proposed L2 controller: per-set demand monitoring
// (core.Monitor), G/T classification, and index-bit-flipping grouped
// cooperative caching (core.Place) over the private-slice hierarchy.
type SNUG struct {
	coop
	mon  []*core.Monitor
	flip bool // Case 2 placements enabled (false in the no-flipping ablation)

	stage           Stage
	stageStart      int64
	stageSwitches   int64
	strandedDropped int64
}

// NewSNUG builds the SNUG controller for cfg.
func NewSNUG(cfg config.System) *SNUG {
	s := &SNUG{mon: make([]*core.Monitor, cfg.Cores), flip: cfg.SNUG.IndexFlip}
	s.coop = newCoop(cfg, "SNUG", s, cfg.Mem.SNUGRemote)
	for i := range s.mon {
		s.mon[i] = core.NewMonitor(s.h.geom, cfg.SNUG.ShadowWays, cfg.SNUG.CounterBits, cfg.SNUG.PDivisor)
	}
	return s
}

// Stage returns the current operating stage.
func (s *SNUG) Stage() Stage { return s.stage }

// StageSwitches returns how many stage transitions have happened.
func (s *SNUG) StageSwitches() int64 { return s.stageSwitches }

// Monitor returns slice i's demand monitor.
func (s *SNUG) Monitor(i int) *core.Monitor { return s.mon[i] }

// spillsFrom lets a clean victim of a taker set spill during Stage II.
func (s *SNUG) spillsFrom(i int, set uint32) bool {
	return s.stage == StageGroup && s.mon[i].GT().Taker(set)
}

// place evaluates Figure 8's three cases against host's G/T vector.
func (s *SNUG) place(host int, set uint32) (uint32, bool, bool) {
	return core.Place(s.mon[host].GT(), set, s.flip)
}

// search is place: spill and retrieval consult the same frozen G/T vector,
// so a peer performs at most one unambiguous set search (§3.2).
func (s *SNUG) search(peer int, set uint32) (uint32, bool, bool) { return s.place(peer, set) }

// hit and miss train the demand monitor in both stages; the G/T vector is
// re-latched only at Stage I -> II transitions (Figure 5). Stage I's
// distinct role is that spilling is suspended while the new classification
// settles. On a miss, a revisit of a formerly evicted block invalidates the
// shadow entry (exclusivity) and trains the counter.
func (s *SNUG) hit(i int, a addr.Addr)  { s.mon[i].OnRealHit(a) }
func (s *SNUG) miss(i int, a addr.Addr) { s.mon[i].OnMissCheck(a, true) }

// evicted shadows a locally owned victim, on the requester or a host.
func (s *SNUG) evicted(i int, set uint32, tag uint64) { s.mon[i].OnLocalEvict(set, tag) }

func (*SNUG) offChip(int, uint32) {}

// Tick implements Controller: drains write buffers and advances the
// two-stage schedule of Figure 5.
func (s *SNUG) Tick(now int64) {
	s.h.drainWriteBuffers(now)
	for now >= s.stageStart+s.stageLen() {
		s.stageStart += s.stageLen()
		if s.stage == StageIdentify {
			s.latch()
			s.stage = StageGroup
		} else {
			s.stage = StageIdentify
		}
		s.stageSwitches++
	}
}

// stageLen returns the current stage's duration in cycles.
func (s *SNUG) stageLen() int64 {
	if s.stage == StageIdentify {
		return s.h.cfg.SNUG.StageICycles
	}
	return s.h.cfg.SNUG.StageIICycles
}

// latch re-latches every slice's G/T vector from its counters and, when
// configured, drops cooperative blocks stranded unreachable by the new
// classification (see DESIGN.md, "SNUG spill rules"). The stranded sweep
// walks the CC occupancy index instead of every set: only sets actually
// holding cooperative blocks are scanned, and CC-free slices cost nothing.
func (s *SNUG) latch() {
	for _, m := range s.mon {
		m.Latch()
	}
	if !s.h.cfg.SNUG.DropOnFlip {
		return
	}
	for i, m := range s.mon {
		gt := m.GT()
		slice := s.h.slices[i]
		slice.ForEachCCSet(func(set uint32) {
			dropped := slice.DropWhere(set, func(b cache.Block) bool {
				return b.CC && !core.Reachable(gt, set, b.F, s.flip)
			})
			s.strandedDropped += int64(dropped)
		})
	}
}

// Report implements Controller.
func (s *SNUG) Report() Report {
	r := s.coop.Report()
	r.StrandedDropped = s.strandedDropped
	return r
}
