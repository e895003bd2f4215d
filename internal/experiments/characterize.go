package experiments

import (
	"snug/internal/addr"
	"snug/internal/cache"
	"snug/internal/config"
	"snug/internal/isa"
	"snug/internal/stackdist"
	"snug/internal/trace"
)

// CharacterizeOptions configures a Figures 1–3 run. The paper's §2.2
// methodology: an L2 access stream (after L1 filtering) is profiled with
// A_threshold = 2×A_baseline = 32 LRU positions per set, over 1000 sampling
// intervals of 100 K L2 accesses each, bucketed into M = 8 demand ranges.
type CharacterizeOptions struct {
	Benchmark           string
	Cfg                 config.System
	AThreshold          int   // 0 = 2× L2 ways
	Buckets             int   // M; 0 = 8
	Intervals           int   // 0 = 1000
	AccessesPerInterval int64 // L2 accesses per interval; 0 = 100_000
	Seed                uint64
}

// normalize fills defaults.
func (o *CharacterizeOptions) normalize() {
	if o.AThreshold == 0 {
		o.AThreshold = 2 * o.Cfg.Mem.L2Slice.Ways
	}
	if o.Buckets == 0 {
		o.Buckets = 8
	}
	if o.Intervals == 0 {
		o.Intervals = 1000
	}
	if o.AccessesPerInterval == 0 {
		o.AccessesPerInterval = 100_000
	}
	if o.Seed == 0 {
		o.Seed = o.Cfg.Seed
	}
}

// Characterize reproduces the §2.2 methodology for one benchmark: the
// synthetic generator's data stream is filtered through the L1, and every
// L2-level access feeds the per-set stack-distance profiler; at each
// interval boundary block_required is bucketed per Formulas (3)–(5).
func Characterize(opt CharacterizeOptions) (*stackdist.Characterization, error) {
	opt.normalize()
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
	gen, err := trace.NewGenerator(prof, l2Geom, opt.Seed, totalRefs)
	if err != nil {
		return nil, err
	}
	l1 := cache.MustNew(l1Geom, opt.Cfg.Mem.L1D.Ways)
	profiler := stackdist.MustProfiler(l2Geom, opt.AThreshold)
	chz := stackdist.NewCharacterization(opt.AThreshold, opt.Buckets)

	var in isa.Instr
	for interval := 1; interval <= opt.Intervals; interval++ {
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
		chz.Add(profiler.EndInterval(interval, opt.Buckets, opt.Cfg.Mem.L2Slice.Ways))
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
