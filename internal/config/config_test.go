package config

import "testing"

// TestTable4Defaults pins the default configuration to the paper's Table 4.
func TestTable4Defaults(t *testing.T) {
	s := Default()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"cores", s.Cores, 4},
		{"issue width", s.Core.IssueWidth, 8},
		{"commit width", s.Core.CommitWidth, 8},
		{"I-fetch queue", s.Core.FetchQueue, 8},
		{"LSQ", s.Core.LSQSize, 64},
		{"RUU", s.Core.RUUSize, 128},
		{"int ALUs", s.Core.IntALUs, 4},
		{"FP ALUs", s.Core.FPALUs, 4},
		{"branch penalty", s.Core.BranchPenalty, 3},
		{"history length", s.Core.HistoryLength, 10},
		{"predictor entries", s.Core.PredictorSize, 1024},
		{"BTB sets", s.Core.BTBSets, 512},
		{"BTB ways", s.Core.BTBWays, 4},
		{"RAS", s.Core.RASEntries, 8},
		{"L1 latency", s.Mem.L1Lat, 1},
		{"L1D size", s.Mem.L1D.SizeBytes, 32 << 10},
		{"L1D ways", s.Mem.L1D.Ways, 4},
		{"L1D block", s.Mem.L1D.BlockBytes, 64},
		{"L2 latency", s.Mem.L2Lat, 10},
		{"L2 slice size", s.Mem.L2Slice.SizeBytes, 1 << 20},
		{"L2 ways", s.Mem.L2Slice.Ways, 16},
		{"L2 block", s.Mem.L2Slice.BlockBytes, 64},
		{"L2 sets", s.Mem.L2Slice.Sets(), 1024},
		{"remote latency", s.Mem.RemoteLat, 30},
		{"SNUG remote latency", s.Mem.SNUGRemote, 40},
		{"DRAM latency", s.Mem.DRAMLat, 300},
		{"bus width", s.Mem.BusWidthBytes, 16},
		{"bus ratio", s.Mem.BusSpeedRatio, 4},
		{"bus arbitration", s.Mem.BusArbCycles, 1},
		{"write buffer entries", s.Mem.WriteBufEntries, 16},
		{"address bits", s.Mem.AddressBits, 32},
		{"SNUG counter bits (k)", s.SNUG.CounterBits, 4},
		{"SNUG p", s.SNUG.PDivisor, 8},
		{"shadow ways", s.SNUG.ShadowWays, 16},
		{"DSR sample sets", s.DSR.SampleSets, 32},
		{"DSR PSEL bits", s.DSR.PSELBits, 10},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if s.SNUG.StageICycles != 5_000_000 {
		t.Errorf("Stage I = %d, want 5M cycles", s.SNUG.StageICycles)
	}
	if s.SNUG.StageIICycles != 100_000_000 {
		t.Errorf("Stage II = %d, want 100M cycles", s.SNUG.StageIICycles)
	}
	if !s.SNUG.IndexFlip {
		t.Error("index-bit flipping disabled by default")
	}
}

func TestScaledPreservesRatios(t *testing.T) {
	s := Scaled(50)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.SNUG.StageICycles != 100_000 || s.SNUG.StageIICycles != 2_000_000 {
		t.Fatalf("scaled stages %d/%d", s.SNUG.StageICycles, s.SNUG.StageIICycles)
	}
	// The cache geometry must be untouched by scaling.
	if s.Mem.L2Slice != Default().Mem.L2Slice {
		t.Fatal("Scaled changed the cache geometry")
	}
}

func TestTestScaleValid(t *testing.T) {
	s := TestScale()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Mem.L2Slice.Sets() != 64 {
		t.Fatalf("test L2 sets = %d, want 64", s.Mem.L2Slice.Sets())
	}
}

// TestWithCoresScaleOut pins the scale-out presets: per-core structures
// replicate, the bus widens to keep per-core bandwidth constant, and the
// widened configurations validate.
func TestWithCoresScaleOut(t *testing.T) {
	quad, err := WithCores(Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if quad != Default() {
		t.Error("WithCores(Default(), 4) != Default()")
	}

	cases := []struct {
		cores    int
		busWidth int
		busRatio int
	}{
		{8, 32, 4},
		{16, 64, 4},
		{32, 64, 2}, // width caps at the 64 B block; clock ratio steps down
	}
	for _, c := range cases {
		s, err := WithCores(Default(), c.cores)
		if err != nil {
			t.Fatalf("WithCores(Default(), %d): %v", c.cores, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("WithCores(Default(), %d) invalid: %v", c.cores, err)
		}
		if s.Cores != c.cores {
			t.Errorf("WithCores(Default(), %d).Cores = %d", c.cores, s.Cores)
		}
		if s.Mem.BusWidthBytes != c.busWidth || s.Mem.BusSpeedRatio != c.busRatio {
			t.Errorf("WithCores(Default(), %d) bus %dB ratio %d, want %dB ratio %d",
				c.cores, s.Mem.BusWidthBytes, s.Mem.BusSpeedRatio, c.busWidth, c.busRatio)
		}
		// Per-core structures are untouched by widening.
		if s.Mem.L2Slice != Default().Mem.L2Slice || s.Mem.WriteBufEntries != Default().Mem.WriteBufEntries {
			t.Errorf("WithCores(Default(), %d) changed per-core geometry", c.cores)
		}
	}

	for _, n := range []int{8, 16} {
		s, err := WithCores(TestScale(), n)
		if err != nil {
			t.Fatalf("WithCores(TestScale(), %d): %v", n, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("WithCores(TestScale(), %d) invalid: %v", n, err)
		}
		if s.Cores != n || s.Mem.L2Slice.Sets() != 64 {
			t.Errorf("WithCores(TestScale(), %d): cores %d, sets %d", n, s.Cores, s.Mem.L2Slice.Sets())
		}
	}

	for _, bad := range []int{0, -4, 2, 6, 12, 20} {
		if _, err := WithCores(Default(), bad); err == nil {
			t.Errorf("WithCores(%d) accepted", bad)
		}
	}

	// The bus scaling is quad-relative: widening an already-widened system
	// would compound it, so only a 4-core base is accepted.
	wide, err := WithCores(Default(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WithCores(wide, 16); err == nil {
		t.Error("WithCores accepted an already-widened base")
	}

	// Beyond 64 cores neither the bus width (capped at the block size) nor
	// the 4:1 clock ratio can keep per-core bandwidth constant: refuse
	// rather than silently under-provision.
	if s, err := WithCores(Default(), 64); err != nil || s.Mem.BusSpeedRatio != 1 {
		t.Errorf("WithCores(Default(), 64) = ratio %d, %v; want ratio 1", s.Mem.BusSpeedRatio, err)
	}
	if _, err := WithCores(Default(), 128); err == nil {
		t.Error("WithCores(Default(), 128) accepted despite an unmeetable bus-bandwidth invariant")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []func(*System){
		func(s *System) { s.Cores = 0 },
		func(s *System) { s.Mem.L2Slice.SizeBytes = 0 },
		func(s *System) { s.Mem.L1D.SizeBytes = 48 << 10 }, // 192 sets: not 2^n
		func(s *System) { s.SNUG.CounterBits = 1 },
		func(s *System) { s.SNUG.PDivisor = 6 },
		func(s *System) { s.SNUG.StageICycles = 0 },
		func(s *System) { s.DSR.SampleSets = 10_000 },
		func(s *System) { s.CC.SpillPercent = 30 },
		func(s *System) { s.Quantum = 0 },
		// Each of these used to pass Validate and then panic while the
		// system was built or run.
		func(s *System) { s.SNUG.CounterBits = 16 },
		func(s *System) { s.SNUG.ShadowWays = 0 },
		func(s *System) { s.SNUG.ShadowWays = 32 },
		func(s *System) { s.Mem.L1D.Ways = 32 },
		func(s *System) { s.Mem.L2Slice.Ways = 32 },
		func(s *System) { s.DSR.SampleSets = 0 },
		func(s *System) { s.DSR.PSELBits = 0 },
		func(s *System) { s.Core.RUUSize = 0 },
		func(s *System) { s.Core.PredictorSize = 0 },
		func(s *System) { s.Core.BTBSets = 0 },
		func(s *System) { s.Core.RASEntries = 0 },
		func(s *System) { s.Mem.WriteBufEntries = 0 },
		func(s *System) { s.Mem.BusWidthBytes = 0 },
		func(s *System) { s.Core.BTBWays = 0 },
		func(s *System) { s.Mem.BusSpeedRatio = 0 },
		func(s *System) { s.Mem.BusArbCycles = -1 },
		func(s *System) { s.Mem.DRAMLat = 0 },
		// Each of these used to pass Validate and then run a core the
		// timing model cannot: an LSQ of 0 stalled core 0 forever, and a
		// width that is not a power of two ran as another width.
		func(s *System) { s.Core.LSQSize = 0 },
		func(s *System) { s.Core.LSQSize = -1 },
		func(s *System) { s.Core.IssueWidth = 0 },
		func(s *System) { s.Core.IssueWidth = -3 },
		func(s *System) { s.Core.IssueWidth = 6 },
		func(s *System) { s.Core.CommitWidth = 0 },
		func(s *System) { s.Core.CommitWidth = 3 },
		func(s *System) { s.Core.ALULat = -5 },
		func(s *System) { s.Core.FPLat = -1 },
		func(s *System) { s.Core.MultLat = -1 },
		func(s *System) { s.Core.DivLat = -1 },
		func(s *System) { s.Core.LoadLat = -1 },
		func(s *System) { s.Core.BranchPenalty = -1 },
		func(s *System) { s.Mem.L1Lat = -1 },
		func(s *System) { s.Mem.L2Lat = -1 },
		func(s *System) { s.Mem.RemoteLat = -1 },
		func(s *System) { s.Mem.SNUGRemote = -1 },
	}
	for i, mut := range cases {
		s := Default()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}

	// A zero latency stays legal, as do the narrow power-of-two widths.
	s := Default()
	s.Core.IssueWidth, s.Core.CommitWidth, s.Core.LSQSize = 1, 2, 1
	s.Core.ALULat, s.Core.FPLat, s.Core.MultLat, s.Core.DivLat = 0, 0, 0, 0
	s.Core.LoadLat, s.Core.BranchPenalty = 0, 0
	s.Mem.L1Lat, s.Mem.L2Lat, s.Mem.RemoteLat, s.Mem.SNUGRemote = 0, 0, 0, 0
	if err := s.Validate(); err != nil {
		t.Errorf("zero latencies and widths 1 and 2 refused: %v", err)
	}
}
