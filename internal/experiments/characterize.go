package experiments

import (
	"fmt"

	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/isa"
	"snug/internal/stackdist"
	"snug/internal/trace"
)

// CharacterizeOptions configures a Figures 1–3 run. The paper's §2.2
// methodology profiles an L2 access stream (after L1 filtering) with
// A_threshold = 2×A_baseline LRU positions per set (32 for the 16-way
// slice), over 1000 sampling intervals of 100 K L2 accesses each, bucketed
// into M = 8 demand ranges. A_threshold and M are fixed at those values,
// and the generator's seed is Cfg.Seed.
type CharacterizeOptions struct {
	Benchmark           string
	Cfg                 config.System
	Intervals           int   // sampling intervals (the paper's 1000)
	AccessesPerInterval int64 // L2 accesses per interval (the paper's 100_000)
}

// demandBuckets is the paper's M: block_required is bucketed into this
// many equal ranges of [1, A_threshold].
const demandBuckets = 8

// Characterize reproduces the §2.2 methodology for one benchmark: the
// synthetic generator's data stream is filtered through the L1, and every
// L2-level access feeds the per-set stack-distance profiler; at each
// interval boundary block_required is bucketed per Formulas (3)–(5).
func Characterize(opt CharacterizeOptions) (*stackdist.Characterization, error) {
	if opt.Intervals <= 0 || opt.AccessesPerInterval <= 0 {
		return nil, fmt.Errorf("experiments: characterization needs a positive interval count and interval length, got %d intervals of %d accesses",
			opt.Intervals, opt.AccessesPerInterval)
	}
	prof, err := trace.ByName(opt.Benchmark)
	if err != nil {
		return nil, err
	}
	l2Geom := addr.MustGeometry(opt.Cfg.Mem.L2Slice.BlockBytes, opt.Cfg.Mem.L2Slice.Sets())
	l1Geom := addr.MustGeometry(opt.Cfg.Mem.L1D.BlockBytes, opt.Cfg.Mem.L1D.Sets())

	// Size the generator's phase rotation so the benchmark's phases land at
	// the paper's interval positions (vortex: ~405 and ~792 of 1000).
	// Intervals are counted in post-L1 L2 accesses while phases advance per
	// distinct touch; the L1 filters roughly 35-40% of distinct touches, so
	// the rotation is stretched accordingly.
	totalL2 := int64(opt.Intervals) * opt.AccessesPerInterval
	totalRefs := totalL2 * 8 / 5
	gen, err := trace.NewGenerator(prof, l2Geom, opt.Cfg.Seed, totalRefs)
	if err != nil {
		return nil, err
	}
	l1 := cache.MustNew(l1Geom, opt.Cfg.Mem.L1D.Ways)
	aThreshold := 2 * opt.Cfg.Mem.L2Slice.Ways
	profiler := stackdist.MustProfiler(l2Geom, aThreshold)
	chz := stackdist.NewCharacterization(aThreshold, demandBuckets)

	var in isa.Instr
	for i := 0; i < opt.Intervals; i++ {
		for profiler.Accesses() < opt.AccessesPerInterval {
			gen.Next(&in)
			if in.Kind != isa.KindLoad && in.Kind != isa.KindStore {
				continue
			}
			if l1.Lookup(in.Addr, in.Kind == isa.KindStore) {
				continue
			}
			l1.Insert(in.Addr, cache.Block{Dirty: in.Kind == isa.KindStore})
			profiler.Touch(in.Addr)
		}
		chz.Add(profiler.EndInterval(demandBuckets, opt.Cfg.Mem.L2Slice.Ways))
	}
	return chz, nil
}

// FigureBenchmarks maps the characterization figures to their benchmarks.
var FigureBenchmarks = []struct {
	Figure    int
	Benchmark string
	Note      string
}{
	{1, "ammp", "~40% of sets demand only 1-4 blocks throughout"},
	{2, "vortex", "mid-run phase (~intervals 405-792) with 15%/9%/7% shallow sets"},
	{3, "applu", "streaming: nearly all sets demand 1-4 blocks"},
}

// FigureFor returns the figure number for a benchmark name, or 0.
func FigureFor(bench string) int {
	for _, f := range FigureBenchmarks {
		if f.Benchmark == bench {
			return f.Figure
		}
	}
	return 0
}
