package core

import (
	"snug/internal/addr"
	"snug/internal/cache"
)

// MonitorStats aggregates one slice's capacity-demand monitoring activity.
type MonitorStats struct {
	ShadowHits    int64
	ShadowInserts int64
	RealHitPulses int64
	Latches       int64 // G/T vector re-latches performed
}

// Monitor is one SNUG slice's per-set capacity-demand monitor (§3.1): the
// shadow L2 cache (a tag-only array with the same geometry and — by
// default — the same associativity as the real slice, its own LRU ranking,
// and strict tag exclusivity with the slice's local lines) plus the per-set
// saturating counters, and the G/T vector they latch into.
type Monitor struct {
	shadow   *cache.Cache
	counters []SatCounter
	gt       *GTVector
	stats    MonitorStats
}

// NewMonitor builds a monitor for a slice with the given geometry.
func NewMonitor(geom addr.Geometry, shadowWays, counterBits, p int) *Monitor {
	m := &Monitor{
		shadow:   cache.MustNew(geom, shadowWays),
		counters: make([]SatCounter, geom.Sets()),
		gt:       MustGTVector(geom.Sets()),
	}
	for i := range m.counters {
		m.counters[i] = MustSatCounter(counterBits, p)
	}
	return m
}

// GT returns the slice's G/T vector.
func (m *Monitor) GT() *GTVector { return m.gt }

// Stats returns a snapshot of monitoring counters.
func (m *Monitor) Stats() MonitorStats { return m.stats }

// Counter returns set s's saturating counter value (tests and reporting).
func (m *Monitor) Counter(s uint32) *SatCounter { return &m.counters[s] }

// OnRealHit accounts a hit in the real set containing a.
func (m *Monitor) OnRealHit(a addr.Addr) {
	m.counters[m.shadow.Index(a)].RealHit()
	m.stats.RealHitPulses++
}

// OnMissCheck checks the shadow set for a formerly evicted block being
// revisited (§3.1.1): on a shadow hit the entry is invalidated (the block
// re-enters the real set, and shadow entries are strictly exclusive with
// local lines) and the saturating counter is bumped. Returns whether the
// shadow held the tag.
func (m *Monitor) OnMissCheck(a addr.Addr) bool {
	if _, found := m.shadow.Invalidate(a); !found {
		return false
	}
	m.counters[m.shadow.Index(a)].ShadowHit()
	m.stats.ShadowHits++
	return true
}

// OnLocalEvict retains the shadow of a locally owned victim evicted from
// set setIdx: its tag enters the shadow set at MRU, displacing the
// shadow's own LRU entry if full.
func (m *Monitor) OnLocalEvict(setIdx uint32, tag uint64) {
	m.shadow.InsertAt(setIdx, cache.Block{Tag: tag})
	m.stats.ShadowInserts++
}

// Latch copies every counter's MSB into the G/T vector — the Stage I → II
// transition of Figure 5. It returns the number of taker sets latched.
//
// The counters are NOT reset: the paper initializes them once (Figure 7),
// so classification confidence accumulates across identification stages
// while the saturating arithmetic still tracks demand shifts.
func (m *Monitor) Latch() int {
	takers := 0
	for s := range m.counters {
		taker := m.counters[s].Taker()
		m.gt.Set(uint32(s), taker)
		if taker {
			takers++
		}
	}
	m.stats.Latches++
	return takers
}
