package schemes

import (
	"testing"

	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/config"
)

func testCfg() config.System {
	cfg := config.TestScale()
	return cfg
}

func geomOf(cfg config.System) addr.Geometry {
	return addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
}

func TestL2PHitMissLatencies(t *testing.T) {
	cfg := testCfg()
	p := NewL2P(cfg)
	g := geomOf(cfg)
	a := addr.ForCore(0, g.Rebuild(5, 3))

	done := p.Access(0, 100, a, false)
	if done < 100+int64(cfg.Mem.L2Lat+cfg.Mem.DRAMLat) {
		t.Fatalf("cold miss served in %d cycles; DRAM costs %d", done-100, cfg.Mem.DRAMLat)
	}
	done = p.Access(0, 1000, a, false)
	if done != 1000+int64(cfg.Mem.L2Lat) {
		t.Fatalf("hit served in %d cycles, want L2 latency %d", done-1000, cfg.Mem.L2Lat)
	}
}

func TestL2PIsolation(t *testing.T) {
	cfg := testCfg()
	p := NewL2P(cfg)
	g := geomOf(cfg)
	// Core 0 fills a block; core 1's access to its own copy of the same
	// virtual address must miss (disjoint address spaces, no sharing).
	p.Access(0, 100, addr.ForCore(0, g.Rebuild(5, 3)), false)
	done := p.Access(1, 200, addr.ForCore(1, g.Rebuild(5, 3)), false)
	if done < 200+int64(cfg.Mem.DRAMLat) {
		t.Fatal("private baseline leaked capacity between cores")
	}
}

func TestL2PDirectRead(t *testing.T) {
	cfg := testCfg()
	p := NewL2P(cfg)
	g := geomOf(cfg)
	ways := cfg.Mem.L2Slice.Ways
	// Fill a set with dirty blocks, overflow it, then immediately re-read
	// an evicted dirty block: it must be served from the write buffer.
	addrs := make([]addr.Addr, ways+1)
	for i := range addrs {
		addrs[i] = addr.ForCore(0, g.Rebuild(uint64(i+1), 7))
		p.Access(0, 100, addrs[i], true)
	}
	p.Access(0, 200, addrs[0], false) // LRU victim was addrs[0] (dirty)
	if got := p.Report().PerCore[0].BySource[SrcWriteBuffer]; got != 1 {
		t.Fatalf("write-buffer direct reads = %d, want 1", got)
	}
}

func TestL2SBankInterleaving(t *testing.T) {
	cfg := testCfg()
	s := NewL2S(cfg)
	// Local bank: block 0 of core 0's space maps to bank 0.
	aLocal := addr.ForCore(0, 0)
	s.Access(0, 100, aLocal, false)
	done := s.Access(0, 1000, aLocal, false)
	if done != 1000+int64(cfg.Mem.L2Lat) {
		t.Fatalf("local-bank hit latency %d, want %d", done-1000, cfg.Mem.L2Lat)
	}
	// Remote bank: block 1 maps to bank 1, accessed by core 0.
	aRemote := addr.ForCore(0, 64)
	s.Access(0, 2000, aRemote, false)
	done = s.Access(0, 3000, aRemote, false)
	if done < 3000+int64(cfg.Mem.RemoteLat) {
		t.Fatalf("remote-bank hit latency %d, want >= %d (NUCA)", done-3000, cfg.Mem.RemoteLat)
	}
	rep := s.Report()
	if rep.PerCore[0].BySource[SrcLocalL2] != 1 || rep.PerCore[0].BySource[SrcRemoteL2] != 1 {
		t.Fatalf("source accounting %+v", rep.PerCore[0])
	}
}

func TestL2SSharedCapacity(t *testing.T) {
	cfg := testCfg()
	s := NewL2S(cfg)
	// Unlike L2P, a single core can hold far more than one slice: fill
	// 2x slice capacity and verify a high hit rate on re-access.
	blocks := 2 * cfg.Mem.L2Slice.Sets() * cfg.Mem.L2Slice.Ways
	for i := 0; i < blocks; i++ {
		s.Access(0, 100, addr.ForCore(0, addr.Addr(i*64)), false)
	}
	hits := 0
	for i := 0; i < blocks; i++ {
		before := s.h.perCore[0].BySource[SrcDRAM]
		s.Access(0, 200, addr.ForCore(0, addr.Addr(i*64)), false)
		if s.h.perCore[0].BySource[SrcDRAM] == before {
			hits++
		}
	}
	if frac := float64(hits) / float64(blocks); frac < 0.9 {
		t.Fatalf("shared hit fraction %.2f on 2x slice footprint, want > 0.9", frac)
	}
}

func TestCCSpillAndRetrieve(t *testing.T) {
	cfg := testCfg()
	c := NewCC(cfg, 100)
	g := geomOf(cfg)
	ways := cfg.Mem.L2Slice.Ways
	addrs := make([]addr.Addr, ways+2)
	for i := range addrs {
		addrs[i] = addr.ForCore(0, g.Rebuild(uint64(i+1), 9))
		c.Access(0, 100, addrs[i], false)
	}
	if c.spills == 0 {
		t.Fatal("no spills at 100% probability")
	}
	before := c.retrievalHits
	done := c.Access(0, 5000, addrs[0], false)
	if c.retrievalHits != before+1 {
		t.Fatal("retrieval missed the spilled block")
	}
	if done < 5000+int64(cfg.Mem.L2Lat+cfg.Mem.RemoteLat) {
		t.Fatalf("remote hit latency %d, want >= %d", done-5000, cfg.Mem.L2Lat+cfg.Mem.RemoteLat)
	}
	// Forward-and-invalidate: the host copy is gone; a local re-access hits.
	if done := c.Access(0, 9000, addrs[0], false); done != 9000+int64(cfg.Mem.L2Lat) {
		t.Fatalf("post-retrieval local latency %d", done-9000)
	}
}

func TestCCZeroProbabilityNeverSpills(t *testing.T) {
	cfg := testCfg()
	c := NewCC(cfg, 0)
	g := geomOf(cfg)
	for i := 0; i < 4*cfg.Mem.L2Slice.Ways; i++ {
		c.Access(0, 100, addr.ForCore(0, g.Rebuild(uint64(i+1), 2)), false)
	}
	if c.spills != 0 {
		t.Fatalf("CC(0%%) spilled %d blocks", c.spills)
	}
}

func TestCCName(t *testing.T) {
	if got := NewCC(testCfg(), 75).Name(); got != "CC(75%)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestDSRSampleSetsAndPolicy(t *testing.T) {
	cfg := testCfg()
	d := NewDSR(cfg)
	// Every cache has exactly SampleSets spiller and receiver samples.
	for core := 0; core < cfg.Cores; core++ {
		var sp, rc int
		for _, cat := range d.cat[core] {
			switch cat {
			case catSpillSample:
				sp++
			case catRecvSample:
				rc++
			}
		}
		if sp != cfg.DSR.SampleSets || rc != cfg.DSR.SampleSets {
			t.Fatalf("core %d: %d spiller / %d receiver samples, want %d each", core, sp, rc, cfg.DSR.SampleSets)
		}
	}
	// Fresh PSEL: followers default to receiving (dead zone).
	if d.isSpiller(0) {
		t.Fatal("fresh DSR cache is a spiller; ties must favor receiving")
	}
	// Spiller-sample sets always spill, receiver samples never do.
	for s := uint32(0); s < uint32(cfg.Mem.L2Slice.Sets()); s++ {
		switch d.cat[0][s] {
		case catSpillSample:
			if !d.spillsFrom(0, s) {
				t.Fatal("spiller sample refused to spill")
			}
			if _, _, ok := d.place(0, s); ok {
				t.Fatal("spiller sample accepted a spill")
			}
		case catRecvSample:
			if d.spillsFrom(0, s) {
				t.Fatal("receiver sample spilled")
			}
			if _, _, ok := d.place(0, s); !ok {
				t.Fatal("receiver sample refused a spill")
			}
		}
	}
}

func TestDSRTraining(t *testing.T) {
	cfg := testCfg()
	d := NewDSR(cfg)
	// Find a spiller-sample set of core 0 and hammer it with off-chip
	// misses: PSEL must rise (spilling looks bad).
	var spill uint32
	for s, cat := range d.cat[0] {
		if cat == catSpillSample {
			spill = uint32(s)
			break
		}
	}
	before := d.psel[0]
	for i := 0; i < 10; i++ {
		d.offChip(0, spill)
	}
	if d.psel[0] != before+10 {
		t.Fatalf("PSEL %d -> %d, want +10", before, d.psel[0])
	}
	// Follower misses never train.
	var follower uint32
	for s, cat := range d.cat[0] {
		if cat == catFollower {
			follower = uint32(s)
			break
		}
	}
	mid := d.psel[0]
	d.offChip(0, follower)
	if d.psel[0] != mid {
		t.Fatal("follower miss trained PSEL")
	}
}

func TestHierarchyVictimAddr(t *testing.T) {
	cfg := testCfg()
	h := newHierarchy(cfg)
	g := h.geom
	orig := g.Rebuild(99, 6)
	// A flipped cooperative block residing in set 7 recovers index 6.
	v := cache.Block{Tag: g.Tag(orig), Valid: true, CC: true, F: true}
	if got := h.victimAddr(v, 7); got != orig {
		t.Fatalf("victimAddr = %#x, want %#x", got, orig)
	}
	// A local block in set 6 rebuilds directly.
	v = cache.Block{Tag: g.Tag(orig), Valid: true}
	if got := h.victimAddr(v, 6); got != orig {
		t.Fatalf("local victimAddr = %#x, want %#x", got, orig)
	}
}
