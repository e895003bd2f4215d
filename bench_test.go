// Package snug's top-level benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the index):
//
//	Figures 1-3:  set-level capacity-demand characterization
//	              (BenchmarkFigure1Ammp / Figure2Vortex / Figure3Applu)
//	Tables 2-3:   SNUG storage overhead (BenchmarkTable2/3Overhead)
//	Figures 9-11: throughput / AWS / FS over the Table 8 workload classes
//	              (BenchmarkFigure9Throughput / Figure10AWS / Figure11FairSpeedup)
//	Ablations:    index-bit flipping, counter threshold p, shadow depth
//
// The figure benchmarks report their headline numbers as custom metrics
// (e.g. SNUG_avg, DSR_avg) so `go test -bench` output documents the
// reproduced shape next to the timing. Absolute values are expected to
// differ from the paper (synthetic workloads, scaled system); orderings
// and crossovers are the reproduction target — see DESIGN.md.
package main

import (
	"context"
	"fmt"
	"testing"

	"snug/internal/bench"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/core"
	"snug/internal/experiments"
	"snug/internal/metrics"
	"snug/internal/sweep"
)

// benchCycles keeps individual simulations short enough for -bench runs
// while spanning several SNUG epochs. It aliases the internal/bench run
// length so every benchmark here measures the same amount of simulated
// work as the shared perf-trajectory bodies.
const benchCycles = bench.Cycles

// characterize runs one Figures 1-3 benchmark and reports bucket shares.
func characterize(b *testing.B, bench string) {
	b.Helper()
	var first float64
	for i := 0; i < b.N; i++ {
		chz, err := experiments.Characterize(experiments.CharacterizeOptions{
			Benchmark: bench, Cfg: config.TestScale(),
			Intervals: 40, AccessesPerInterval: 10_000,
		})
		if err != nil {
			b.Fatal(err)
		}
		first = chz.MeanBucketSizes()[0]
	}
	b.ReportMetric(first, "bucket1-4_share")
}

func BenchmarkFigure1Ammp(b *testing.B)   { characterize(b, "ammp") }
func BenchmarkFigure2Vortex(b *testing.B) { characterize(b, "vortex") }
func BenchmarkFigure3Applu(b *testing.B)  { characterize(b, "applu") }

func BenchmarkTable2Overhead(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		o, err := core.ComputeOverhead(core.DefaultOverheadParams())
		if err != nil {
			b.Fatal(err)
		}
		pct = o.Percent()
	}
	b.ReportMetric(pct, "overhead_%")
}

func BenchmarkTable3Overhead(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		cells, err := core.Table3()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, c := range cells {
			if c.Percent > worst {
				worst = c.Percent
			}
		}
	}
	b.ReportMetric(worst, "max_overhead_%")
}

// The figure benchmarks share one body (internal/bench.FigureMetric, also
// behind cmd/bench's perf-trajectory baseline), so all three measure the
// same evaluation work.
func BenchmarkFigure9Throughput(b *testing.B)   { bench.Figure9Throughput(b) }
func BenchmarkFigure10AWS(b *testing.B)         { bench.FigureMetric(b, metrics.MetricAWS) }
func BenchmarkFigure11FairSpeedup(b *testing.B) { bench.FigureMetric(b, metrics.MetricFS) }

// The per-scheme benchmarks share one body (internal/bench.SchemeOnMix),
// so every scheme times the same workload and run length.
func BenchmarkSchemeL2P(b *testing.B)  { bench.SchemeOnMix(b, "L2P") }
func BenchmarkSchemeL2S(b *testing.B)  { bench.SchemeOnMix(b, "L2S") }
func BenchmarkSchemeCC(b *testing.B)   { bench.SchemeOnMix(b, "CC") }
func BenchmarkSchemeDSR(b *testing.B)  { bench.SchemeOnMix(b, "DSR") }
func BenchmarkSchemeSNUG(b *testing.B) { bench.SchemeSNUG(b) }

// scheme8Core times one 8-core scale-out simulation — the scaling study's
// unit of work, tracking the new width axis next to the quad-core numbers.
func scheme8Core(b *testing.B, scheme string) {
	b.Helper()
	cfg, err := config.TestScaleN(8)
	if err != nil {
		b.Fatal(err)
	}
	mix := []string{"ammp", "ammp", "parser", "parser", "swim", "swim", "mesa", "mesa"}
	var tput float64
	for i := 0; i < b.N; i++ {
		r, err := cmp.RunWorkload(cfg, scheme, mix, benchCycles)
		if err != nil {
			b.Fatal(err)
		}
		tput = r.Throughput()
	}
	b.ReportMetric(tput, "throughput")
}

func BenchmarkScheme8CoreL2P(b *testing.B)  { scheme8Core(b, "L2P") }
func BenchmarkScheme8CoreSNUG(b *testing.B) { scheme8Core(b, "SNUG") }

// ablate compares a SNUG variant against the default on the C1 stress
// class (the design choices DESIGN.md calls out).
func ablate(b *testing.B, mutate func(*config.System)) {
	b.Helper()
	mix := []string{"ammp", "ammp", "ammp", "ammp"}
	var ratio float64
	for i := 0; i < b.N; i++ {
		base, err := cmp.RunWorkload(config.TestScale(), "L2P", mix, benchCycles)
		if err != nil {
			b.Fatal(err)
		}
		cfg := config.TestScale()
		mutate(&cfg)
		r, err := cmp.RunWorkload(cfg, "SNUG", mix, benchCycles)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Throughput() / base.Throughput()
	}
	b.ReportMetric(ratio, "norm_throughput")
}

func BenchmarkAblationDefault(b *testing.B) { ablate(b, func(*config.System) {}) }
func BenchmarkAblationNoIndexFlip(b *testing.B) {
	ablate(b, func(c *config.System) { c.SNUG.IndexFlip = false })
}
func BenchmarkAblationP4(b *testing.B) {
	ablate(b, func(c *config.System) { c.SNUG.PDivisor = 4 })
}
func BenchmarkAblationP16(b *testing.B) {
	ablate(b, func(c *config.System) { c.SNUG.PDivisor = 16 })
}
func BenchmarkAblationShadow8Way(b *testing.B) {
	ablate(b, func(c *config.System) { c.SNUG.ShadowWays = 8 })
}
func BenchmarkAblationKeepStranded(b *testing.B) {
	ablate(b, func(c *config.System) { c.SNUG.DropOnFlip = false })
}

// BenchmarkSweepEngine measures the sweep engine's per-job orchestration
// overhead (seed derivation, scheduling, collection) with no-op jobs — the
// fixed cost the engine adds on top of each simulation.
func BenchmarkSweepEngine(b *testing.B) {
	jobs := make([]sweep.Job, 64)
	for i := range jobs {
		jobs[i] = sweep.Job{
			Key: fmt.Sprintf("job-%02d", i),
			Run: func(seed uint64) (cmp.RunResult, error) {
				return cmp.RunResult{Cycles: int64(seed)}, nil
			},
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(context.Background(), sweep.Options{}, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSpeed measures raw simulation throughput in simulated
// cycles per wall-clock second over recorded-and-replayed streams (the
// sweep's steady-state shape); BenchmarkSimulatorSpeedLive is the same
// measurement over live generators. Bodies live in internal/bench, shared
// with cmd/bench's machine-readable baseline.
func BenchmarkSimulatorSpeed(b *testing.B)     { bench.SimulatorSpeed(b) }
func BenchmarkSimulatorSpeedLive(b *testing.B) { bench.SimulatorSpeedLive(b) }

// BenchmarkSNUG16Core tracks replayed 16-core scale-out throughput — the
// shape where the CC occupancy index collapses the per-miss broadcast from
// O(cores × ways) set scans to a counter check per peer.
func BenchmarkSNUG16Core(b *testing.B) { bench.SNUG16Core(b) }

// The layout microbenchmarks pin the packed cache array and the bus
// calendar directly (bodies in internal/bench, gated by cmd/bench -check).
func BenchmarkCacheOps(b *testing.B)      { bench.CacheOps(b) }
func BenchmarkBusContention(b *testing.B) { bench.BusContention(b) }
