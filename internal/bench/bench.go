// Package bench hosts the bodies of the repository's headline performance
// benchmarks, shared between the `go test -bench` harness (bench_test.go at
// the module root) and cmd/bench, which runs them standalone to write and
// check the machine-readable perf-trajectory baseline (BENCH_PR<n>.json).
// Keeping one body per benchmark guarantees the committed baseline and the
// -bench output measure exactly the same work.
package bench

import (
	"context"
	"testing"

	"snug/internal/addr"
	"snug/internal/bus"
	"snug/internal/cache"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/metrics"
	"snug/internal/trace"
)

// Cycles keeps individual simulations short enough for -bench runs while
// spanning several SNUG epochs (the benchCycles of bench_test.go).
const Cycles = 1_200_000

// MixBench is the representative mixed workload (one benchmark per class)
// the simulator-speed and per-scheme benchmarks run.
var MixBench = []string{"ammp", "parser", "swim", "mesa"}

// SimulatorSpeed measures raw simulation throughput, in simulated cycles
// per wall-clock second, over recorded-and-replayed instruction streams —
// the sweep engine's steady-state shape, where every scheme after the first
// replays the combo's recording. Each iteration assembles a fresh system
// and replays the same recordings; the recording itself is captured before
// the timer starts.
func SimulatorSpeed(b *testing.B) {
	cfg := config.TestScale()
	streams, err := cmp.WorkloadStreams(cfg, MixBench, cmp.PhaseRefs(Cycles))
	if err != nil {
		b.Fatal(err)
	}
	recs := trace.RecordAll(streams)
	// One untimed replayed run extends the recordings to everything the
	// timed iterations will consume, so they measure pure replay.
	if _, err := cmp.RunStreams(cfg, "SNUG", trace.Replays(recs), Cycles); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.RunStreams(cfg, "SNUG", trace.Replays(recs), Cycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(Cycles)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// SimulatorSpeedLive is SimulatorSpeed over live generators — each
// iteration synthesizes its instruction streams from scratch, the shape of
// a cell's first (recording) run. The gap between the two benchmarks is
// the stream-synthesis share the record/replay subsystem amortizes away.
func SimulatorSpeedLive(b *testing.B) {
	cfg := config.TestScale()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.RunWorkload(cfg, "SNUG", MixBench, Cycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(Cycles)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// SchemeOnMix times one live simulation of the representative mix under
// scheme — the per-scheme cost of the simulator itself, generators
// included.
func SchemeOnMix(b *testing.B, scheme string) {
	var tput float64
	for i := 0; i < b.N; i++ {
		r, err := cmp.RunWorkload(config.TestScale(), scheme, MixBench, Cycles)
		if err != nil {
			b.Fatal(err)
		}
		tput = r.Throughput()
	}
	b.ReportMetric(tput, "throughput")
}

// SchemeSNUG is SchemeOnMix under the paper's controller, the variant the
// perf-trajectory baseline tracks.
func SchemeSNUG(b *testing.B) { SchemeOnMix(b, "SNUG") }

// SNUG16Core measures replayed simulation throughput of the 16-core
// scale-out SNUG system — the shape where the cooperative-caching
// broadcast cost used to grow as O(cores × ways) per miss and the CC
// occupancy index now answers non-holding peers in O(1). Tracked in the
// baseline next to the quad-core SimulatorSpeed so width-dependent
// regressions are caught separately.
func SNUG16Core(b *testing.B) {
	cfg, err := config.TestScaleN(16)
	if err != nil {
		b.Fatal(err)
	}
	var mix []string
	for _, bench := range MixBench {
		for i := 0; i < 4; i++ {
			mix = append(mix, bench)
		}
	}
	streams, err := cmp.WorkloadStreams(cfg, mix, cmp.PhaseRefs(Cycles))
	if err != nil {
		b.Fatal(err)
	}
	recs := trace.RecordAll(streams)
	if _, err := cmp.RunStreams(cfg, "SNUG", trace.Replays(recs), Cycles); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmp.RunStreams(cfg, "SNUG", trace.Replays(recs), Cycles); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(Cycles)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// CacheOps is the packed cache-array microbenchmark: a slice-shaped
// (64-set, 16-way) array driven through the hot-path op mix — lookups with
// occasional writes, miss fills, cooperative inserts, FindCC probes and
// invalidations — reporting raw ops/s. It pins the struct-of-arrays layout:
// a layout regression shows here before it is diluted by the full
// simulator.
func CacheOps(b *testing.B) {
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

// BusContention is the calendar-placement microbenchmark behind the
// binary-search insertion in bus.place: current-time snoops racing
// far-future data phases and opportunistic write-back drains, reporting
// raw ops/s.
func BusContention(b *testing.B) {
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
			bu.TryAcquire(now, bus.KindWriteback)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// FigureMetric runs the full Table 8 evaluation once per iteration (all
// classes, all schemes, through the sweep engine with record/replay on)
// and reports each scheme's cross-class average for the chosen metric.
func FigureMetric(b *testing.B, metric metrics.MetricKind) {
	var avg map[string]float64
	for i := 0; i < b.N; i++ {
		// Parallelism 0 = GOMAXPROCS, via the sweep engine's default.
		ev, err := experiments.Evaluate(context.Background(), experiments.Options{
			Cfg: config.TestScale(), RunCycles: Cycles,
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

// Figure9Throughput is FigureMetric on normalized throughput, the figure
// the perf-trajectory baseline tracks.
func Figure9Throughput(b *testing.B) { FigureMetric(b, metrics.MetricThroughput) }

// ByName maps the exported benchmark names to their bodies, in the order
// cmd/bench runs and reports them.
//
// GateAllocs marks benchmarks whose allocs/op cmd/bench -check gates
// against the baseline (lower is better): allocation counts are stable
// across runs, so a regression there is code, not runner noise.
// Figure9Throughput carries the mark because the full-evaluation path's
// allocation behaviour (trace chunk pooling, stream-cache recycling) is a
// tracked optimization target.
var ByName = []struct {
	Name       string
	Fn         func(*testing.B)
	GateAllocs bool
}{
	{Name: "SimulatorSpeed", Fn: SimulatorSpeed},
	{Name: "SimulatorSpeedLive", Fn: SimulatorSpeedLive},
	{Name: "SNUG16Core", Fn: SNUG16Core},
	{Name: "CacheOps", Fn: CacheOps},
	{Name: "BusContention", Fn: BusContention},
	{Name: "SchemeSNUG", Fn: SchemeSNUG},
	{Name: "Figure9Throughput", Fn: Figure9Throughput, GateAllocs: true},
}
