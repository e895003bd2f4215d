package schemes

import (
	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/mem"
)

// L2S is the shared organization: the four slices form one logical cache,
// block-interleaved across four banks. Any core can use the whole capacity,
// but three quarters of accesses land in remote banks and pay the NUCA
// remote latency (§1). One write buffer serves each bank.
type L2S struct {
	cfg   config.System
	geom  addr.Geometry // true block geometry (for write-back addresses)
	banks []*cache.Cache
	wb    []*mem.WriteBuffer
	bus   *bus.Bus
	dram  *mem.DRAM

	bankBits uint
	perCore  []CoreAccessStats
}

// NewL2S builds the shared-L2 organization.
func NewL2S(cfg config.System) *L2S {
	nb := cfg.Cores
	// Per-bank geometry: same sets/ways as one private slice, addressed
	// with bank-local addresses (bank bits squeezed out, see bankLocal).
	bg := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	s := &L2S{
		cfg:      cfg,
		geom:     bg,
		banks:    make([]*cache.Cache, nb),
		wb:       make([]*mem.WriteBuffer, nb),
		bus:      bus.MustNew(cfg.Mem.BusWidthBytes, cfg.Mem.BusSpeedRatio, cfg.Mem.BusArbCycles, cfg.Mem.L2Slice.BlockBytes),
		dram:     mem.MustDRAM(int64(cfg.Mem.DRAMLat), 0, cfg.Mem.L2Slice.BlockBytes),
		perCore:  make([]CoreAccessStats, cfg.Cores),
		bankBits: uint(log2(nb)),
	}
	for i := range s.banks {
		s.banks[i] = cache.MustNew(bg, cfg.Mem.L2Slice.Ways)
		s.wb[i] = mem.MustWriteBuffer(cfg.Mem.WriteBufEntries)
	}
	return s
}

// Name implements Controller.
func (s *L2S) Name() string { return "L2S" }

// bank returns the interleaved bank for a.
func (s *L2S) bank(a addr.Addr) int {
	return int(uint64(a)>>s.geom.OffsetBits()) & (len(s.banks) - 1)
}

// bankLocal squeezes the bank bits out of a so the per-bank geometry sees a
// dense block-address space.
func (s *L2S) bankLocal(a addr.Addr) addr.Addr {
	off := uint64(a) & uint64(s.cfg.Mem.L2Slice.BlockBytes-1)
	bn := uint64(a) >> s.geom.OffsetBits()
	return addr.Addr((bn>>s.bankBits)<<s.geom.OffsetBits() | off)
}

// bankGlobal inverts bankLocal for write-back addresses.
func (s *L2S) bankGlobal(local addr.Addr, bank int) addr.Addr {
	bn := uint64(local) >> s.geom.OffsetBits()
	return addr.Addr((bn<<s.bankBits | uint64(bank)) << s.geom.OffsetBits())
}

// issueWriteback drains one write-buffer entry: bus beat plus DRAM write.
func (s *L2S) issueWriteback(start int64, block addr.Addr) int64 {
	t := s.bus.Acquire(start, bus.KindWriteback)
	return s.dram.Write(t, block)
}

// Access implements Controller.
func (s *L2S) Access(core int, now int64, a addr.Addr, write bool) int64 {
	b := s.bank(a)
	la := s.bankLocal(a)
	lat := int64(s.cfg.Mem.L2Lat)
	src := SrcLocalL2
	remote := b != core
	if remote {
		lat = int64(s.cfg.Mem.RemoteLat)
		src = SrcRemoteL2
		// Remote access rides the interconnect: address beat now, and on a
		// hit the block crosses the data path like any cache-to-cache
		// transfer (charged below).
		s.bus.Acquire(now, bus.KindSnoop)
	}
	if s.banks[b].Lookup(la, write) {
		s.perCore[core].BySource[src]++
		done := now + lat
		if remote {
			dataAt := s.bus.Acquire(now, bus.KindData)
			if dataAt > done {
				done = dataAt
			}
		}
		return done
	}
	// Direct read from the bank's write buffer.
	lb := s.geom.Block(la)
	if s.wb[b].ReadHit(lb) {
		s.wb[b].TakeBack(lb)
		v := s.banks[b].Insert(la, cache.Block{Dirty: true, Owner: int8(core)})
		s.retire(b, now, v, s.geom.Index(la))
		s.perCore[core].BySource[SrcWriteBuffer]++
		return now + lat + 1
	}
	// Off-chip fetch.
	t := s.bus.Acquire(now+lat, bus.KindSnoop)
	t = s.dram.Read(t, a)
	done := s.bus.Acquire(t, bus.KindData)
	v := s.banks[b].Insert(la, cache.Block{Dirty: write, Owner: int8(core)})
	s.retire(b, now, v, s.geom.Index(la))
	s.perCore[core].BySource[SrcDRAM]++
	return done
}

// retire posts a dirty bank victim to the bank's write buffer.
func (s *L2S) retire(bank int, now int64, v cache.Block, setIdx uint32) {
	if !v.Valid || !v.Dirty {
		return
	}
	local := s.geom.Rebuild(v.Tag, setIdx)
	s.wb[bank].Insert(now, s.bankGlobal(local, bank), s.issueWriteback)
}

// WritebackL1 implements Controller.
func (s *L2S) WritebackL1(core int, now int64, a addr.Addr) {
	b := s.bank(a)
	la := s.bankLocal(a)
	if s.banks[b].Lookup(la, true) {
		return
	}
	s.wb[b].Insert(now, s.geom.Block(a), s.issueWriteback)
}

// Tick implements Controller.
func (s *L2S) Tick(now int64) {
	for _, wb := range s.wb {
		wb.Drain(now, s.issueWriteback)
	}
}

// Report implements Controller.
func (s *L2S) Report() Report {
	r := Report{
		Scheme:  s.Name(),
		PerCore: append([]CoreAccessStats(nil), s.perCore...),
		Bus:     s.bus.Stats(),
		DRAM:    s.dram.Stats(),
	}
	for _, b := range s.banks {
		r.Slices = append(r.Slices, b.Stats())
	}
	for _, wb := range s.wb {
		r.WB = append(r.WB, wb.Stats())
	}
	return r
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
