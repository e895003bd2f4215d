package schemes

import (
	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/config"
)

// L2S is the shared organization: the four slices form one logical cache,
// block-interleaved across four banks. Any core can use the whole capacity,
// but three quarters of accesses land in remote banks and pay the NUCA
// remote latency (§1). One write buffer serves each bank.
type L2S struct {
	h        *hierarchy // its slices are the banks
	bankBits uint
}

// NewL2S builds the shared-L2 organization. Each bank has the sets and ways
// of one private slice and is addressed with bank-local addresses (bank
// bits squeezed out, see bankLocal).
func NewL2S(cfg config.System) *L2S {
	return &L2S{h: newHierarchy(cfg), bankBits: uint(log2(cfg.Cores))}
}

// Name implements Controller.
func (s *L2S) Name() string { return "L2S" }

// bank returns the interleaved bank for a.
func (s *L2S) bank(a addr.Addr) int {
	return int(uint64(a)>>s.h.geom.OffsetBits()) & (len(s.h.slices) - 1)
}

// bankLocal squeezes the bank bits out of a so the per-bank geometry sees a
// dense block-address space.
func (s *L2S) bankLocal(a addr.Addr) addr.Addr {
	off := uint64(a) & uint64(s.h.cfg.Mem.L2Slice.BlockBytes-1)
	bn := uint64(a) >> s.h.geom.OffsetBits()
	return addr.Addr((bn>>s.bankBits)<<s.h.geom.OffsetBits() | off)
}

// bankGlobal inverts bankLocal for write-back addresses.
func (s *L2S) bankGlobal(local addr.Addr, bank int) addr.Addr {
	bn := uint64(local) >> s.h.geom.OffsetBits()
	return addr.Addr((bn<<s.bankBits | uint64(bank)) << s.h.geom.OffsetBits())
}

// Access implements Controller.
func (s *L2S) Access(core int, now int64, a addr.Addr, write bool) int64 {
	h := s.h
	b := s.bank(a)
	la := s.bankLocal(a)
	lat := int64(h.cfg.Mem.L2Lat)
	src := SrcLocalL2
	remote := b != core
	if remote {
		lat = int64(h.cfg.Mem.RemoteLat)
		src = SrcRemoteL2
		// Remote access rides the interconnect: address beat now, and on a
		// hit the block crosses the data path like any cache-to-cache
		// transfer (charged below).
		h.bus.Acquire(now, bus.KindSnoop)
	}
	if h.slices[b].Lookup(la, write) {
		h.record(core, src)
		done := now + lat
		if remote {
			done = max(done, h.bus.Acquire(now, bus.KindData))
		}
		return done
	}
	// Direct read from the bank's write buffer.
	if h.takeBack(b, la) {
		v := h.slices[b].Insert(la, cache.Block{Dirty: true, Owner: int8(core)})
		s.retire(b, now, v, h.geom.Index(la))
		h.record(core, SrcWriteBuffer)
		return now + lat + 1
	}
	done := h.fetchDRAM(now+lat, a)
	v := h.slices[b].Insert(la, cache.Block{Dirty: write, Owner: int8(core)})
	s.retire(b, now, v, h.geom.Index(la))
	h.record(core, SrcDRAM)
	return done
}

// retire posts a dirty bank victim to the bank's write buffer.
func (s *L2S) retire(bank int, now int64, v cache.Block, setIdx uint32) {
	if v.Valid && v.Dirty {
		s.h.postWriteback(bank, now, s.bankGlobal(s.h.geom.Rebuild(v.Tag, setIdx), bank))
	}
}

// WritebackL1 implements Controller.
func (s *L2S) WritebackL1(core int, now int64, a addr.Addr) {
	b := s.bank(a)
	if s.h.slices[b].Lookup(s.bankLocal(a), true) {
		return
	}
	s.h.postWriteback(b, now, s.h.geom.Block(a))
}

// Tick implements Controller.
func (s *L2S) Tick(now int64) { s.h.drainWriteBuffers(now) }

// Report implements Controller.
func (s *L2S) Report() Report { return s.h.report(s.Name()) }

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
