package cmp

import (
	"testing"

	"snug/internal/config"
	"snug/internal/schemes"
)

// TestAllSchemesRun drives every scheme over a mixed workload and checks
// basic sanity: instructions retire, IPC stays within the machine's width,
// and accounting is conserved.
func TestAllSchemesRun(t *testing.T) {
	cfg := config.TestScale()
	bench := []string{"ammp", "parser", "swim", "mesa"}
	for _, scheme := range []string{"L2P", "L2S", "CC", "DSR", "SNUG"} {
		r, err := RunWorkload(cfg, scheme, bench, 500_000)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.Cycles != 500_000 {
			t.Errorf("%s: cycles %d", scheme, r.Cycles)
		}
		for i, c := range r.Cores {
			if c.Instructions == 0 {
				t.Errorf("%s core %d retired nothing", scheme, i)
			}
			if c.IPC <= 0 || c.IPC > float64(cfg.Core.IssueWidth) {
				t.Errorf("%s core %d IPC %.3f out of (0, %d]", scheme, i, c.IPC, cfg.Core.IssueWidth)
			}
			// L2-level accesses cannot exceed L1 misses.
			if got := r.Report.PerCore[i].Total(); got > c.L1Misses {
				t.Errorf("%s core %d: %d L2 accesses > %d L1 misses", scheme, i, got, c.L1Misses)
			}
		}
	}
}

// TestDeterminism verifies bit-identical results across runs with the same
// seed and diverging results with a different seed.
func TestDeterminism(t *testing.T) {
	cfg := config.TestScale()
	bench := []string{"ammp", "mcf", "gzip", "apsi"}
	r1, err := RunWorkload(cfg, "SNUG", bench, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunWorkload(cfg, "SNUG", bench, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Cores {
		if r1.Cores[i].Instructions != r2.Cores[i].Instructions {
			t.Fatalf("core %d: %d vs %d instructions across identical runs",
				i, r1.Cores[i].Instructions, r2.Cores[i].Instructions)
		}
	}
	if r1.Report.Spills != r2.Report.Spills || r1.Report.RetrievalHits != r2.Report.RetrievalHits {
		t.Fatal("scheme activity diverged across identical runs")
	}

	cfg.Seed++
	r3, err := RunWorkload(cfg, "SNUG", bench, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Cores {
		if r1.Cores[i].Instructions != r3.Cores[i].Instructions {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical instruction counts")
	}
}

// TestSNUGHelpsNonUniformMix is the paper's headline claim in miniature:
// on a mix of set-level non-uniform (class A) and light (class D)
// applications, SNUG must beat the private baseline, and the
// capacity-hungry applications must individually improve.
func TestSNUGHelpsNonUniformMix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	cfg := config.TestScale()
	bench := []string{"ammp", "parser", "swim", "mesa"}
	const cycles = 2_000_000
	base, err := RunWorkload(cfg, "L2P", bench, cycles)
	if err != nil {
		t.Fatal(err)
	}
	snug, err := RunWorkload(cfg, "SNUG", bench, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := snug.Throughput() / base.Throughput(); ratio <= 1.0 {
		t.Errorf("SNUG throughput ratio %.4f on a giver-rich mix, want > 1", ratio)
	}
	for i := 0; i < 2; i++ { // the class A cores
		if snug.Cores[i].IPC <= base.Cores[i].IPC {
			t.Errorf("%s IPC %.4f under SNUG <= %.4f under L2P",
				bench[i], snug.Cores[i].IPC, base.Cores[i].IPC)
		}
	}
	if snug.Report.Spills == 0 || snug.Report.RetrievalHits == 0 {
		t.Error("SNUG cooperated nothing on a cooperative-friendly mix")
	}
}

// TestStressTestNoSpills: on the all-taker C2 stress test, SNUG must
// identify that no capacity is spare and spill (almost) nothing, landing
// within noise of the baseline.
func TestStressTestNoSpills(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	cfg := config.TestScale()
	bench := []string{"mcf", "mcf", "mcf", "mcf"}
	const cycles = 2_000_000
	base, err := RunWorkload(cfg, "L2P", bench, cycles)
	if err != nil {
		t.Fatal(err)
	}
	snug, err := RunWorkload(cfg, "SNUG", bench, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if float64(snug.Report.Spills) > 0.02*float64(snug.Report.Retrievals) {
		t.Errorf("SNUG spilled %d times among all-taker applications", snug.Report.Spills)
	}
	if ratio := snug.Throughput() / base.Throughput(); ratio < 0.97 || ratio > 1.03 {
		t.Errorf("C2 stress ratio %.4f, want ~1.0", ratio)
	}
}

// TestControllerFactory checks that the five families resolve by name and
// an unknown name is refused.
func TestControllerFactory(t *testing.T) {
	cfg := config.TestScale()
	for _, name := range []string{"L2P", "L2S", "CC", "DSR", "SNUG"} {
		c, err := schemes.Build(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var _ schemes.Controller = c
	}
	if _, err := schemes.Build("victim-cache", cfg); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// TestNewSystemRefusesUnbuildableConfigs checks that each system the
// constructors below cmp would panic on, or the simulator would run wrong,
// is refused by NewSystem and RunWorkload with an error, under every
// scheme family.
func TestNewSystemRefusesUnbuildableConfigs(t *testing.T) {
	base := config.TestScale()
	bench := []string{"ammp", "parser", "swim", "mesa"}
	streams, err := WorkloadStreams(base, bench, 1000)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		mut  func(*config.System)
	}{
		{"SNUG.CounterBits=16", func(s *config.System) { s.SNUG.CounterBits = 16 }},
		{"SNUG.ShadowWays=0", func(s *config.System) { s.SNUG.ShadowWays = 0 }},
		{"SNUG.ShadowWays=32", func(s *config.System) { s.SNUG.ShadowWays = 32 }},
		{"L1D.Ways=32", func(s *config.System) { s.Mem.L1D.Ways = 32 }},
		{"L2Slice.Ways=32", func(s *config.System) { s.Mem.L2Slice.Ways = 32 }},
		{"DSR.SampleSets=0", func(s *config.System) { s.DSR.SampleSets = 0 }},
		{"DSR.PSELBits=0", func(s *config.System) { s.DSR.PSELBits = 0 }},
		{"Core.RUUSize=0", func(s *config.System) { s.Core.RUUSize = 0 }},
		{"Core.PredictorSize=0", func(s *config.System) { s.Core.PredictorSize = 0 }},
		{"Core.BTBSets=0", func(s *config.System) { s.Core.BTBSets = 0 }},
		{"Core.RASEntries=0", func(s *config.System) { s.Core.RASEntries = 0 }},
		{"Mem.WriteBufEntries=0", func(s *config.System) { s.Mem.WriteBufEntries = 0 }},
		{"Mem.BusWidthBytes=0", func(s *config.System) { s.Mem.BusWidthBytes = 0 }},
		{"Core.BTBWays=0", func(s *config.System) { s.Core.BTBWays = 0 }},
		{"Mem.BusSpeedRatio=0", func(s *config.System) { s.Mem.BusSpeedRatio = 0 }},
		{"Mem.BusArbCycles=-1", func(s *config.System) { s.Mem.BusArbCycles = -1 }},
		{"Mem.DRAMLat=0", func(s *config.System) { s.Mem.DRAMLat = 0 }},
		{"L1D.BlockBytes=48", func(s *config.System) { s.Mem.L1D.BlockBytes, s.Mem.L1D.SizeBytes = 48, 48*16*4 }},
		{"L2Slice.BlockBytes=96", func(s *config.System) { s.Mem.L2Slice.BlockBytes, s.Mem.L2Slice.SizeBytes = 96, 96*64*16 }},
		{"Core.HistoryLength=-1", func(s *config.System) { s.Core.HistoryLength = -1 }},
		{"Cores=3", func(s *config.System) { s.Cores = 3 }},
	}
	for _, b := range bad {
		cfg := base
		b.mut(&cfg)
		n := min(cfg.Cores, len(streams))
		for _, scheme := range []string{"L2P", "L2S", "CC(75%)", "DSR", "SNUG"} {
			for _, c := range []struct {
				name  string
				build func() error
			}{
				{"NewSystem", func() error { _, err := NewSystem(cfg, scheme, streams[:n]); return err }},
				{"RunWorkload", func() error { _, err := RunWorkload(cfg, scheme, bench[:n], 1000); return err }},
			} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s under %s: %s panicked: %v", b.name, scheme, c.name, r)
						}
					}()
					if err := c.build(); err == nil {
						t.Errorf("%s under %s: %s accepted the system", b.name, scheme, c.name)
					}
				}()
			}
		}
	}
}

// TestWorkloadStreams checks stream construction errors.
func TestWorkloadStreams(t *testing.T) {
	cfg := config.TestScale()
	if _, err := WorkloadStreams(cfg, []string{"ammp"}, 1000); err == nil {
		t.Error("wrong stream count accepted")
	}
	if _, err := WorkloadStreams(cfg, []string{"ammp", "x", "y", "z"}, 1000); err == nil {
		t.Error("unknown benchmark accepted")
	}
	streams, err := WorkloadStreams(cfg, []string{"ammp", "ammp", "gzip", "mesa"}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(streams) != 4 {
		t.Fatalf("%d streams", len(streams))
	}
}

// TestRunResumable: System.Run accumulates across calls.
func TestRunResumable(t *testing.T) {
	cfg := config.TestScale()
	streams, err := WorkloadStreams(cfg, []string{"gzip", "gzip", "gzip", "gzip"}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, "L2P", streams)
	if err != nil {
		t.Fatal(err)
	}
	r1 := sys.Run(100_000)
	r2 := sys.Run(100_000)
	if r2.Cycles != 200_000 {
		t.Fatalf("cumulative cycles %d", r2.Cycles)
	}
	if r2.Cores[0].Instructions <= r1.Cores[0].Instructions {
		t.Fatal("second quantum retired nothing")
	}
}
