package schemes

import (
	"testing"

	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/config"
)

func snugUnderTest(t *testing.T) (*SNUG, config.System) {
	t.Helper()
	cfg := config.TestScale()
	cfg.SNUG.StageICycles = 1000
	cfg.SNUG.StageIICycles = 9000
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewSNUG(cfg), cfg
}

// peerCC counts the cooperative blocks of original set idx that core 0's
// peers hold: Case 1 placements at idx itself, Case 2 ones in the flipped
// set.
func peerCC(s *SNUG, idx uint32) (same, flipped int64) {
	for peer := 1; peer < len(s.mon); peer++ {
		same += int64(s.h.slices[peer].CCCount(idx, false))
		flipped += int64(s.h.slices[peer].CCCount(addr.FlipLastIndexBit(idx), true))
	}
	return same, flipped
}

func TestSNUGStageSchedule(t *testing.T) {
	s, cfg := snugUnderTest(t)
	if s.Stage() != StageIdentify {
		t.Fatal("must start in Stage I (identification)")
	}
	s.Tick(cfg.SNUG.StageICycles)
	if s.Stage() != StageGroup {
		t.Fatal("Stage I did not end on schedule")
	}
	s.Tick(cfg.SNUG.StageICycles + cfg.SNUG.StageIICycles)
	if s.Stage() != StageIdentify {
		t.Fatal("Stage II did not end on schedule")
	}
	if got := s.StageSwitches(); got != 2 {
		t.Fatalf("StageSwitches = %d, want 2", got)
	}
}

func TestSNUGNoSpillsDuringStageI(t *testing.T) {
	s, cfg := snugUnderTest(t)
	geom := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	// Force core 0's set 0 to overflow repeatedly while still in Stage I.
	for tag := uint64(0); tag < 64; tag++ {
		a := addr.ForCore(0, geom.Rebuild(tag, 0))
		s.Access(0, 10, a, false)
	}
	if s.spills != 0 {
		t.Fatalf("%d spills during Stage I; the paper allows none", s.spills)
	}
}

func TestSNUGSpillAndRetrieve(t *testing.T) {
	s, cfg := snugUnderTest(t)
	geom := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())

	// Mark core 0's set 0 as taker and latch; peers stay givers.
	s.mon[0].GT().Set(0, true)
	s.stage = StageGroup

	// Fill set 0 of core 0 beyond capacity with clean blocks: overflow
	// victims must spill into a peer's giver set 0 (Case 1, f=0).
	ways := cfg.Mem.L2Slice.Ways
	addrs := make([]addr.Addr, 0, ways+4)
	for tag := uint64(1); tag <= uint64(ways+4); tag++ {
		a := addr.ForCore(0, geom.Rebuild(tag, 0))
		addrs = append(addrs, a)
		s.Access(0, 100, a, false)
	}
	same, flipped := peerCC(s, 0)
	if s.spills == 0 || same != s.spills || flipped != 0 {
		t.Fatalf("%d spills, %d held at the same index and %d flipped; want only Case 1 spills", s.spills, same, flipped)
	}

	// Re-access the first (evicted, spilled) block: the retrieval must hit
	// a peer, forward the block home, and invalidate the cooperative copy.
	before := s.retrievalHits
	done := s.Access(0, 200, addrs[0], false)
	if s.retrievalHits != before+1 {
		t.Fatal("retrieval did not hit the spilled block")
	}
	wantMin := int64(200) + int64(cfg.Mem.L2Lat) + int64(cfg.Mem.SNUGRemote)
	if done < wantMin {
		t.Fatalf("remote retrieval completed at %d, want >= %d (40-cycle SNUG remote latency)", done, wantMin)
	}
	// The copy must be gone from every peer now (invalidate-on-forward).
	tag := geom.Tag(addrs[0])
	for peer := 1; peer < cfg.Cores; peer++ {
		if found, _ := s.h.slices[peer].FindCC(0, tag, false); found {
			t.Fatalf("peer %d still holds the forwarded block", peer)
		}
	}
	// And it must now hit locally at core 0.
	if done := s.Access(0, 300, addrs[0], false); done != 300+int64(cfg.Mem.L2Lat) {
		t.Fatalf("local re-access latency %d, want local L2 hit", done-300)
	}
}

func TestSNUGFlippedSpill(t *testing.T) {
	s, cfg := snugUnderTest(t)
	geom := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	s.stage = StageGroup
	// Core 0 set 0 is a taker; every peer's set 0 is also a taker but set 1
	// is a giver — Case 2 placements with f=1.
	s.mon[0].GT().Set(0, true)
	for peer := 1; peer < cfg.Cores; peer++ {
		s.mon[peer].GT().Set(0, true)
	}
	ways := cfg.Mem.L2Slice.Ways
	var first addr.Addr
	for tag := uint64(1); tag <= uint64(ways+2); tag++ {
		a := addr.ForCore(0, geom.Rebuild(tag, 0))
		if tag == 1 {
			first = a
		}
		s.Access(0, 100, a, false)
	}
	same, flipped := peerCC(s, 0)
	if s.spills == 0 || flipped != s.spills || same != 0 {
		t.Fatalf("%d spills, %d held at the same index and %d flipped; want only Case 2 (flipped) spills", s.spills, same, flipped)
	}
	// Retrieval must find the block in the flipped set.
	before := s.retrievalHits
	s.Access(0, 200, first, false)
	if s.retrievalHits != before+1 {
		t.Fatal("flipped-index retrieval failed")
	}
}

func TestSNUGDirtyVictimsNeverSpill(t *testing.T) {
	s, cfg := snugUnderTest(t)
	geom := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	s.stage = StageGroup
	s.mon[0].GT().Set(2, true)
	ways := cfg.Mem.L2Slice.Ways
	for tag := uint64(1); tag <= uint64(ways+8); tag++ {
		a := addr.ForCore(0, geom.Rebuild(tag, 2))
		s.Access(0, 100, a, true) // stores: every block dirty
	}
	if s.spills != 0 {
		t.Fatalf("%d dirty blocks spilled; §3.3 allows only clean blocks", s.spills)
	}
	if s.h.wb[0].Stats().Inserts == 0 {
		t.Fatal("dirty victims did not reach the write buffer")
	}
}

func TestSNUGStrandedDropOnLatch(t *testing.T) {
	s, cfg := snugUnderTest(t)
	geom := addr.MustGeometry(cfg.Mem.L2Slice.BlockBytes, cfg.Mem.L2Slice.Sets())
	s.stage = StageGroup
	s.mon[0].GT().Set(0, true)
	ways := cfg.Mem.L2Slice.Ways
	for tag := uint64(1); tag <= uint64(ways+4); tag++ {
		s.Access(0, 100, addr.ForCore(0, geom.Rebuild(tag, 0)), false)
	}
	if s.spills == 0 {
		t.Fatal("setup produced no spills")
	}
	// Force the hosts' counters to classify set 0 as taker at the next
	// latch: cooperative copies there become unreachable and must drop.
	for peer := 1; peer < cfg.Cores; peer++ {
		for i := 0; i < 4; i++ {
			s.mon[peer].Counter(0).ShadowHit()
			s.mon[peer].Counter(1).ShadowHit()
		}
	}
	s.latch()
	if s.strandedDropped == 0 {
		t.Fatal("stranded cooperative blocks not dropped at re-latch")
	}
	for peer := 1; peer < cfg.Cores; peer++ {
		if n := s.h.slices[peer].DropWhere(0, func(b cache.Block) bool { return b.CC }); n != 0 {
			t.Fatalf("peer %d kept %d unreachable cooperative blocks in set 0", peer, n)
		}
	}
}

func TestSNUGImplementsController(t *testing.T) {
	s, _ := snugUnderTest(t)
	if s.Name() != "SNUG" {
		t.Fatalf("Name = %q", s.Name())
	}
	r := s.Report()
	if r.Scheme != "SNUG" || len(r.PerCore) == 0 {
		t.Fatalf("report %+v", r)
	}
}
