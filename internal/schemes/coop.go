package schemes

import (
	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/config"
)

// policy is what a cooperative scheme decides; coop does everything else.
type policy interface {
	// spillsFrom reports whether a clean local victim of (core, set) spills.
	spillsFrom(core int, set uint32) bool
	// place returns the set of host that takes a block spilled from
	// original set, and the f bit the block is stored with; ok is false
	// when host declines.
	place(host int, set uint32) (at uint32, flipped, ok bool)
	// search returns where a retrieval looks in peer for a block of
	// original set; ok is false when peer cannot hold one.
	search(peer int, set uint32) (at uint32, flipped, ok bool)

	// hit and miss observe core's local lookup of a (a miss before the
	// write-buffer probe); offChip observes a miss in (core, set) that no
	// peer served, before DRAM is read.
	hit(core int, a addr.Addr)
	miss(core int, a addr.Addr)
	offChip(core int, set uint32)
	// evicted observes a locally owned block leaving set of slice, on the
	// requester or on a host taking a spill.
	evicted(slice int, set uint32, tag uint64)
}

// coop is the access path L2P, CC, DSR and SNUG share over private slices:
// a local lookup, a direct read from the write buffer, a retrieval
// broadcast that a holding peer answers by forwarding and invalidating its
// copy (§3.3), then DRAM. A clean local victim may spill into one peer
// set, offered to the peers in round-robin order; a spilled block gets one
// chance (a cooperative victim vanishes), and a host's own victim drains or
// vanishes, never spilling on. What differs between the schemes is asked
// of their policy.
type coop struct {
	h         *hierarchy
	name      string
	pol       policy
	remoteLat int64 // cache-to-cache latency of a retrieval hit
	nextHost  []int // per-core round-robin spill pointer

	spills        int64
	spillNoTaker  int64
	retrievals    int64
	retrievalHits int64
}

// newCoop builds the shared path for the scheme called name.
func newCoop(cfg config.System, name string, pol policy, remoteLat int) coop {
	c := coop{
		h:         newHierarchy(cfg),
		name:      name,
		pol:       pol,
		remoteLat: int64(remoteLat),
		nextHost:  make([]int, cfg.Cores),
	}
	for i := range c.nextHost {
		c.nextHost[i] = (i + 1) % cfg.Cores
	}
	return c
}

// Name implements Controller.
func (c *coop) Name() string { return c.name }

// Access implements Controller.
func (c *coop) Access(core int, now int64, a addr.Addr, write bool) int64 {
	h := c.h
	l2Lat := int64(h.cfg.Mem.L2Lat)
	if h.slices[core].Lookup(a, write) {
		c.pol.hit(core, a)
		h.record(core, SrcLocalL2)
		return now + l2Lat
	}
	c.pol.miss(core, a)
	set := h.geom.Index(a)
	if h.takeBack(core, a) {
		c.fill(core, now, a, set, true)
		h.record(core, SrcWriteBuffer)
		return now + l2Lat + 1
	}

	// Retrieval broadcast: the snoop rides the bus in parallel with the
	// memory fetch. A peer's search costs one mask over its candidate
	// set's meta word unless that set holds a cooperative block of the
	// requested flip state.
	c.retrievals++
	reqDone := h.bus.Acquire(now+l2Lat, bus.KindSnoop)
	tag := h.geom.Tag(a)
	for off := 1; off < h.cfg.Cores; off++ {
		peer := (core + off) % h.cfg.Cores
		at, flipped, ok := c.pol.search(peer, set)
		if !ok {
			continue
		}
		found, way := h.slices[peer].FindCC(at, tag, flipped)
		if !found {
			continue
		}
		blk := h.slices[peer].InvalidateWay(at, way)
		c.retrievalHits++
		dataAt := h.bus.Acquire(now+l2Lat, bus.KindData)
		c.fill(core, now, a, set, write || blk.Dirty)
		h.record(core, SrcRemoteL2)
		return max(now+l2Lat+c.remoteLat, dataAt)
	}

	// The memory controller snooped the broadcast's address beat, so the
	// fetch charges no second request beat.
	c.pol.offChip(core, set)
	done := h.bus.Acquire(h.dram.Read(reqDone), bus.KindData)
	c.fill(core, now, a, set, write)
	h.record(core, SrcDRAM)
	return done
}

// fill installs a's block in core's slice and retires the victim:
// cooperative victims vanish, dirty ones drain through the write buffer,
// and a clean one spills if the policy says so.
func (c *coop) fill(core int, now int64, a addr.Addr, set uint32, dirty bool) {
	v := c.h.slices[core].Insert(a, cache.Block{Dirty: dirty, Owner: int8(core)})
	if !v.Valid || v.CC {
		return
	}
	c.pol.evicted(core, set, v.Tag)
	if v.Dirty {
		c.h.retire(core, now, v, set)
		return
	}
	if c.pol.spillsFrom(core, set) {
		c.spill(core, now, v, set)
	}
}

// spill offers a clean victim of core's set to the peers in round-robin
// order from nextHost[core]; the first whose policy places it takes it.
func (c *coop) spill(core int, now int64, v cache.Block, set uint32) {
	h := c.h
	n := h.cfg.Cores
	start := c.nextHost[core]
	for off := 0; off < n-1; off++ {
		host := (start + off) % n
		if host == core {
			host = (host + 1) % n
		}
		at, flipped, ok := c.pol.place(host, set)
		if !ok {
			continue
		}
		c.nextHost[core] = (host + 1) % n
		h.bus.Acquire(now, bus.KindSnoop)
		h.bus.Acquire(now, bus.KindData)
		hv := h.slices[host].InsertAt(at, cache.Block{Tag: v.Tag, CC: true, F: flipped, Owner: v.Owner})
		c.spills++
		if hv.Valid && !hv.CC {
			c.pol.evicted(host, at, hv.Tag)
			h.retire(host, now, hv, at)
		}
		return
	}
	c.spillNoTaker++
}

// WritebackL1 implements Controller.
func (c *coop) WritebackL1(core int, now int64, a addr.Addr) {
	c.h.writebackL1(core, now, a)
}

// Tick implements Controller.
func (c *coop) Tick(now int64) { c.h.drainWriteBuffers(now) }

// Report implements Controller.
func (c *coop) Report() Report {
	r := c.h.report(c.name)
	r.Spills = c.spills
	r.SpillNoTaker = c.spillNoTaker
	r.Retrievals = c.retrievals
	r.RetrievalHits = c.retrievalHits
	return r
}

// sameIndex is the placement CC and DSR share: a spilled block keeps its
// set index with f=0, a retrieval searches that set in every peer, and
// nothing watches the access stream.
type sameIndex struct{}

func (sameIndex) search(_ int, set uint32) (uint32, bool, bool) { return set, false, true }
func (sameIndex) hit(int, addr.Addr)                            {}
func (sameIndex) miss(int, addr.Addr)                           {}
func (sameIndex) offChip(int, uint32)                           {}
func (sameIndex) evicted(int, uint32, uint64)                   {}
