package cpu

import (
	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/config"
)

// L2 is the memory hierarchy below a core's L1 data cache, the part that
// depends on the scheme. Every scheme controller implements it.
type L2 interface {
	// Access serves an L1 miss issued at cycle now and returns the cycle
	// its data is available.
	Access(core int, now int64, a addr.Addr, write bool) (doneAt int64)
	// WritebackL1 accepts a dirty L1 victim.
	WritebackL1(core int, now int64, a addr.Addr)
}

// L1 is a core's private L1 data cache and the one rule every path applies
// to it: an access is rebased into the core's private address space
// (addr.ForCore) and looked up, and a miss fills the block, dirty on a
// store, evicting the set's LRU block. A live core reaches it through
// Access, its MemFunc. A tape's recorder applies the same rule once per
// sweep cell and keeps only the outcomes (tape.go).
type L1 struct {
	cache *cache.Cache
	geom  addr.Geometry // hoisted for the victim rebuild
	base  addr.Addr     // addr.ForCore(core, 0): OR-able private-space rebase
	core  int
	lat   int64 // hit latency
	l2    L2    // nil in a tape's recorder, which never goes below the L1
}

// NewL1 builds core's L1 data cache for cfg in front of l2.
func NewL1(cfg config.System, core int, l2 L2) *L1 {
	g := cfg.Mem.L1D
	geom := addr.MustGeometry(g.BlockBytes, g.Sets())
	return &L1{
		cache: cache.MustNew(geom, g.Ways),
		geom:  geom,
		base:  addr.ForCore(core, 0),
		core:  core,
		lat:   int64(cfg.Mem.L1Lat),
		l2:    l2,
	}
}

// lookup rebases a into the core's address space and looks it up. It
// returns the rebased address and whether it hit.
func (l *L1) lookup(a addr.Addr, write bool) (addr.Addr, bool) {
	pa := a | l.base
	return pa, l.cache.Lookup(pa, write)
}

// fill installs the block of the missed address pa, dirty on a store. When
// the victim it evicts is dirty, fill returns the victim's address.
func (l *L1) fill(pa addr.Addr, write bool) (victim addr.Addr, dirty bool) {
	v := l.cache.Insert(pa, cache.Block{Dirty: write, Owner: int8(l.core)})
	if !v.Valid || !v.Dirty {
		return 0, false
	}
	return l.geom.Rebuild(v.Tag, l.geom.Index(pa)), true
}

// Access resolves one data-memory access of a live core; it is the core's
// MemFunc. A hit takes the L1 latency. A miss goes to the L2 that latency
// after now, and then its dirty victim, if any, is written back at now.
func (l *L1) Access(now int64, a addr.Addr, write bool) int64 {
	pa, hit := l.lookup(a, write)
	if hit {
		return now + l.lat
	}
	done := l.l2.Access(l.core, now+l.lat, pa, write)
	if victim, dirty := l.fill(pa, write); dirty {
		l.l2.WritebackL1(l.core, now, victim)
	}
	return done
}

// Stats returns the cache's counters.
func (l *L1) Stats() cache.Stats { return l.cache.Stats() }
