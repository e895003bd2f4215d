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
//
// The remaining benchmarks time the simulator's parts for profiling work:
// per-scheme and 8-core runs, 4- and 16-core SNUG runs over tapes, the sweep
// engine's per-job overhead, and the cache and bus layout
// microbenchmarks. Nothing gates their numbers; perfbench (BENCHMARK.json)
// is the repository's benchmark.
package main

import (
	"context"
	"fmt"
	"testing"

	"snug/internal/addr"
	"snug/internal/bench"
	"snug/internal/bus"
	"snug/internal/cache"
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
// work as perfbench's workloads.
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

// figureMetric runs the full Table 8 evaluation once per iteration (all
// classes, all schemes, through the sweep engine with record/replay on)
// and reports each scheme's cross-class average for the chosen metric.
// The figure benchmarks share it, so all three measure the same
// evaluation work.
func figureMetric(b *testing.B, metric metrics.MetricKind) {
	b.Helper()
	var avg map[string]float64
	for i := 0; i < b.N; i++ {
		// Parallelism 0 = GOMAXPROCS, via the sweep engine's default.
		ev, err := experiments.Evaluate(context.Background(), experiments.Options{
			Cfg: config.TestScale(), RunCycles: benchCycles,
		})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := ev.Figure(metric)
		if err != nil {
			b.Fatal(err)
		}
		avg = map[string]float64{}
		last := len(cs.Classes) - 1 // the AVG row
		for _, s := range experiments.FigureSchemes {
			avg[s] = cs.Values[s][last]
		}
	}
	for _, s := range experiments.FigureSchemes {
		b.ReportMetric(avg[s], s+"_avg")
	}
}

func BenchmarkFigure9Throughput(b *testing.B)   { figureMetric(b, metrics.MetricThroughput) }
func BenchmarkFigure10AWS(b *testing.B)         { figureMetric(b, metrics.MetricAWS) }
func BenchmarkFigure11FairSpeedup(b *testing.B) { figureMetric(b, metrics.MetricFS) }

// schemeOnMix times one live simulation of the representative mix under
// scheme — the per-scheme cost of the simulator itself, generators
// included. The per-scheme benchmarks share it, so every scheme times the
// same workload and run length.
func schemeOnMix(b *testing.B, scheme string) {
	b.Helper()
	var tput float64
	for i := 0; i < b.N; i++ {
		r, err := cmp.RunWorkload(config.TestScale(), scheme, bench.MixBench, benchCycles)
		if err != nil {
			b.Fatal(err)
		}
		tput = r.Throughput()
	}
	b.ReportMetric(tput, "throughput")
}

func BenchmarkSchemeL2P(b *testing.B)  { schemeOnMix(b, "L2P") }
func BenchmarkSchemeL2S(b *testing.B)  { schemeOnMix(b, "L2S") }
func BenchmarkSchemeCC(b *testing.B)   { schemeOnMix(b, "CC") }
func BenchmarkSchemeDSR(b *testing.B)  { schemeOnMix(b, "DSR") }
func BenchmarkSchemeSNUG(b *testing.B) { schemeOnMix(b, "SNUG") }

// scheme8Core times one 8-core scale-out simulation — the scaling study's
// unit of work, tracking the new width axis next to the quad-core numbers.
func scheme8Core(b *testing.B, scheme string) {
	b.Helper()
	cfg, err := config.WithCores(config.TestScale(), 8)
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

// replayedSNUG times SNUG runs of mix on cfg through a cmp.StreamCache, as
// Evaluate runs every scheme of a cell after the first: over the cell's
// op tapes, recorded by an untimed first run. It reports simulated cycles
// per wall-clock second. Each iteration assembles a fresh system over
// fresh cursors of the same tapes.
func replayedSNUG(b *testing.B, cfg config.System, mix []string) {
	b.Helper()
	sc, uses := cmp.NewStreamCache(), 1+b.N
	// The untimed run records the tapes to everything the timed runs
	// will read, so they measure pure tape runs.
	if _, err := sc.Run(cfg, "SNUG", mix, benchCycles, uses); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.Run(cfg, "SNUG", mix, benchCycles, uses); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchCycles)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkSimulatorSpeed measures raw simulation throughput in simulated
// cycles per wall-clock second over the representative mix's tapes.
// perfbench's live4 workload measures the same run over live generators.
func BenchmarkSimulatorSpeed(b *testing.B) { replayedSNUG(b, config.TestScale(), bench.MixBench) }

// BenchmarkSNUG16Core tracks 16-core scale-out throughput over tapes — the
// shape with the widest per-miss retrieval broadcast, where each of 15
// peers answers FindCC from one mask over its candidate set's meta word.
func BenchmarkSNUG16Core(b *testing.B) {
	cfg, err := config.WithCores(config.TestScale(), 16)
	if err != nil {
		b.Fatal(err)
	}
	var mix []string
	for _, name := range bench.MixBench {
		for i := 0; i < 4; i++ {
			mix = append(mix, name)
		}
	}
	replayedSNUG(b, cfg, mix)
}

// BenchmarkCacheOps is the packed cache-array microbenchmark: a
// slice-shaped (64-set, 16-way) array driven through the hot-path op mix —
// lookups with occasional writes, miss fills, cooperative inserts, FindCC
// probes and invalidations — reporting raw ops/s. It pins the
// struct-of-arrays layout: a layout regression shows here before it is
// diluted by the full simulator.
func BenchmarkCacheOps(b *testing.B) {
	geom := addr.MustGeometry(64, 64)
	c := cache.MustNew(geom, 16)
	rng := uint64(0x5eed)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := next()
		a := geom.Rebuild(r%4096, uint32(r>>16)%64)
		switch i & 7 {
		case 0, 1, 2, 3, 4: // the dominant op: lookup, filling on a miss
			if !c.Lookup(a, i&16 == 0) {
				c.Insert(a, cache.Block{Dirty: i&32 == 0, Owner: int8(i & 3)})
			}
		case 5: // cooperative fill at an explicit (possibly flipped) set
			c.InsertAt(uint32(r)%64, cache.Block{Tag: r % 4096, CC: true, F: r&1 != 0})
		case 6: // peer-side retrieval probe
			c.FindCC(uint32(r)%64, r%4096, r&1 != 0)
		default:
			c.Invalidate(a)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkBusContention is the calendar-placement microbenchmark behind
// the binary-search insertion in bus.place: current-time snoops racing
// far-future data phases and write-back drains, reporting
// raw ops/s.
func BenchmarkBusContention(b *testing.B) {
	bu := bus.MustNew(16, 4, 1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := int64(i) * 3
		skew := now - int64(i%7)*13
		bu.Acquire(skew, bus.KindSnoop)
		if i%2 == 0 {
			bu.Acquire(skew+300, bus.KindData)
		} else {
			bu.Acquire(skew, bus.KindData)
		}
		if i%4 == 0 {
			bu.Acquire(now, bus.KindWriteback)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
