package schemes

import (
	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/config"
)

// setCategory classifies a set for DSR's set dueling.
type setCategory uint8

const (
	catFollower setCategory = iota
	catSpillSample
	catRecvSample
)

// DSR is Dynamic Spill-Receive (Qureshi, HPCA'09 [8]), the paper's
// state-of-the-art baseline. Each cache learns at the *application* level
// whether it should spill (taker) or receive (giver), via set dueling: a
// few dedicated sets always behave as spillers, a few always as receivers,
// and a per-cache policy selector (PSEL) counts off-chip misses suffered in
// each group. The follower sets adopt the policy whose samples miss less.
//
// Spiller caches push clean victims into the same-index set of a receiver
// cache; receiver caches accept. The paper's critique — and what SNUG
// fixes — is that the taker/giver decision is uniform across all 1024 sets
// of a cache even when demand varies set by set.
type DSR struct {
	h        *Hierarchy
	cat      [][]setCategory // [core][set]
	psel     []int           // per-core selector
	pselMax  int
	pselInit int
	nextHost []int

	spills       int64
	spillNoTaker int64
	retrievals   int64
	retrievalHit int64
}

// NewDSR builds the DSR controller.
func NewDSR(cfg config.System) *DSR {
	h := NewHierarchy(cfg)
	sets := cfg.Mem.L2Slice.Sets()
	d := &DSR{
		h:        h,
		cat:      make([][]setCategory, cfg.Cores),
		psel:     make([]int, cfg.Cores),
		pselMax:  (1 << cfg.DSR.PSELBits) - 1,
		pselInit: 1 << (cfg.DSR.PSELBits - 1),
		nextHost: make([]int, cfg.Cores),
	}
	stride := sets / cfg.DSR.SampleSets
	for c := 0; c < cfg.Cores; c++ {
		d.psel[c] = d.pselInit
		d.cat[c] = make([]setCategory, sets)
		// Dedicated sample sets are spread across the index space with a
		// per-core offset so different caches sample different sets.
		for k := 0; k < cfg.DSR.SampleSets; k++ {
			spill := (k*stride + c*7) % sets
			recv := (k*stride + c*7 + stride/2) % sets
			d.cat[c][spill] = catSpillSample
			d.cat[c][recv] = catRecvSample
		}
		d.nextHost[c] = (c + 1) % cfg.Cores
	}
	return d
}

// Name implements Controller.
func (d *DSR) Name() string { return "DSR" }

// isSpiller reports the follower policy of core: spill when the
// spiller-sample sets suffered clearly fewer off-chip misses. The dead
// zone below the midpoint keeps capacity-neutral applications (whose duel
// is a random walk around the initial value) stably in the receiver role
// rather than flapping on noise.
func (d *DSR) isSpiller(core int) bool {
	deadZone := (d.pselMax + 1) / 16
	return d.psel[core] < d.pselInit-deadZone
}

// shouldSpill reports whether an eviction from (core, set) spills.
func (d *DSR) shouldSpill(core int, set uint32) bool {
	switch d.cat[core][set] {
	case catSpillSample:
		return true
	case catRecvSample:
		return false
	default:
		return d.isSpiller(core)
	}
}

// canReceive reports whether (host, set) accepts a foreign spill.
func (d *DSR) canReceive(host int, set uint32) bool {
	switch d.cat[host][set] {
	case catSpillSample:
		return false
	case catRecvSample:
		return true
	default:
		return !d.isSpiller(host)
	}
}

// train updates PSEL on an off-chip miss in (core, set).
func (d *DSR) train(core int, set uint32) {
	switch d.cat[core][set] {
	case catSpillSample:
		if d.psel[core] < d.pselMax {
			d.psel[core]++
		}
	case catRecvSample:
		if d.psel[core] > 0 {
			d.psel[core]--
		}
	}
}

// Access implements Controller.
func (d *DSR) Access(core int, now int64, a addr.Addr, write bool) int64 {
	h := d.h
	l2Lat := int64(h.Cfg.Mem.L2Lat)
	if h.Slices[core].Lookup(a, write) {
		h.Record(core, SrcLocalL2)
		return now + l2Lat
	}
	if ok, done := h.DirectReadProbe(core, now, a); ok {
		v := h.Slices[core].Insert(a, cache.Block{Dirty: true, Owner: int8(core)})
		d.handleVictim(core, now, v, h.Geom.Index(a))
		h.Record(core, SrcWriteBuffer)
		return done
	}

	d.retrievals++
	reqDone := h.Bus.Acquire(now+l2Lat, bus.KindSnoop)
	idx := h.Geom.Index(a)
	tag := h.Geom.Tag(a)
	for off := 1; off < h.Cfg.Cores; off++ {
		peer := (core + off) % h.Cfg.Cores
		if found, way := h.Slices[peer].FindCC(idx, tag, false); found {
			blk := h.Slices[peer].InvalidateWay(idx, way)
			d.retrievalHit++
			dataAt := h.Bus.Acquire(now+l2Lat, bus.KindData)
			done := maxI64(now+l2Lat+int64(h.Cfg.Mem.RemoteLat), dataAt)
			v := h.Slices[core].Insert(a, cache.Block{Dirty: write || blk.Dirty, Owner: int8(core)})
			d.handleVictim(core, now, v, idx)
			h.Record(core, SrcRemoteL2)
			return done
		}
	}

	// Off-chip miss: train the duel.
	d.train(core, idx)
	done := h.FetchDRAMAfterSnoop(reqDone, a)
	v := h.Slices[core].Insert(a, cache.Block{Dirty: write, Owner: int8(core)})
	d.handleVictim(core, now, v, idx)
	h.Record(core, SrcDRAM)
	return done
}

// handleVictim applies the spill-receive policy to an evicted block.
func (d *DSR) handleVictim(core int, now int64, v cache.Block, setIdx uint32) {
	if !v.Valid {
		return
	}
	if v.CC || v.Dirty {
		d.h.RetireVictim(core, now, v, setIdx)
		return
	}
	if !d.shouldSpill(core, setIdx) {
		return
	}
	h := d.h
	start := d.nextHost[core]
	for off := 0; off < h.Cfg.Cores-1; off++ {
		host := (start + off) % h.Cfg.Cores
		if host == core {
			host = (host + 1) % h.Cfg.Cores
		}
		if !d.canReceive(host, setIdx) {
			continue
		}
		d.nextHost[core] = (host + 1) % h.Cfg.Cores
		h.Bus.Acquire(now, bus.KindSnoop)
		h.Bus.Acquire(now, bus.KindData)
		hv := h.Slices[host].InsertAt(setIdx, cache.Block{
			Tag: v.Tag, CC: true, F: false, Owner: v.Owner,
		})
		d.spills++
		if hv.Valid && hv.Dirty && !hv.CC {
			h.PostWriteback(host, now, h.VictimAddr(hv, setIdx))
		}
		return
	}
	d.spillNoTaker++
}

// WritebackL1 implements Controller.
func (d *DSR) WritebackL1(core int, now int64, a addr.Addr) {
	d.h.MarkDirtyOrBuffer(core, now, a)
}

// Tick implements Controller.
func (d *DSR) Tick(now int64) { d.h.DrainWriteBuffers(now) }

// PSEL exposes the per-core selector values for tests and reporting.
func (d *DSR) PSEL() []int { return append([]int(nil), d.psel...) }

// Report implements Controller.
func (d *DSR) Report() Report {
	r := d.h.BaseReport(d.Name())
	r.Spills = d.spills
	r.SpillNoTaker = d.spillNoTaker
	r.Retrievals = d.retrievals
	r.RetrievalHits = d.retrievalHit
	return r
}
