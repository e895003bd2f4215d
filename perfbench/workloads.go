package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snug/internal/bench"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/isa"
	"snug/internal/metrics"
	"snug/internal/schemes"
	"snug/internal/stats"
	"snug/internal/sweep"
	"snug/internal/trace"
	"snug/internal/workloads"
)

// benchCycles is every simulation's length: past SNUG's Stage I→II latch
// (100k) and one re-latch (+900k) at test scale.
const benchCycles = bench.Cycles

// Pinned results digests at the default seed and benchCycles.
const (
	fig9Digest  = "ad8729ab9569e2a6"
	live4Digest = "fb8ac38b40b7bdf7" // internal/cmp's golden run
)

// fig9AVG is Figure 9's AVG row (normalized throughput) at the default
// seed, in experiments.FigureSchemes order: a checked output, not a metric.
var fig9AVG = "L2S 0.9699 CC(Best) 1.0312 DSR 1.0069 SNUG 1.0056"

// digestOne hashes everything one run reports, as internal/cmp's golden
// test does.
func digestOne(r cmp.RunResult) string {
	return fmt.Sprintf("%016x", stats.HashString(fmt.Sprintf("%+v", r)))
}

// digestRuns hashes many runs in job-key order.
func digestRuns(runs map[string]cmp.RunResult) string {
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %+v\n", k, runs[k])
	}
	return fmt.Sprintf("%016x", stats.HashString(b.String()))
}

// committed sums committed instructions over every core of r.
func committed(r cmp.RunResult) int64 {
	var n int64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}

// workDir is where workloads keep scratch files: inside the checkout, in
// the ignored build directory run.sh also uses.
const workDir = ".bench_build/work"

// fig9Options narrows the fig9 workload; the zero value is the benchmark's.
type fig9Options struct {
	classes []string // nil = all six classes (21 combos)
	dir     string   // scratch directory; "" = a fresh one under workDir
}

// fig9 is the Figure 9 evaluation through experiments.Evaluate.
type fig9 struct {
	cfg    config.System
	opt    fig9Options
	par    int
	dir    string
	combos []workloads.Combo
	labels []string // scheme spec labels per combo, L2P first
	stores int      // checkpoint stores created so far
}

func newFig9(seed uint64, opt fig9Options) (*fig9, error) {
	cfg := config.TestScale()
	cfg.Seed = seed
	all, err := workloads.ScaleOut(4)
	if err != nil {
		return nil, err
	}
	f := &fig9{cfg: cfg, opt: opt, par: min(2, runtime.GOMAXPROCS(0)), dir: opt.dir}
	want := map[string]bool{}
	for _, c := range opt.classes {
		want[c] = true
	}
	for _, c := range all {
		if len(want) == 0 || want[c.Class] {
			f.combos = append(f.combos, c)
		}
	}
	f.labels = []string{"L2P", "L2S"}
	for _, pct := range experiments.CCPercents {
		f.labels = append(f.labels, fmt.Sprintf("CC(%d%%)", pct))
	}
	f.labels = append(f.labels, "DSR", "SNUG")
	if f.dir == "" {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			return nil, err
		}
		if f.dir, err = os.MkdirTemp(workDir, "fig9-"); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// store returns a fresh checkpoint-store path.
func (f *fig9) store() string {
	f.stores++
	return filepath.Join(f.dir, fmt.Sprintf("run%d.sweep.json", f.stores))
}

func (f *fig9) pinned() string {
	if len(f.opt.classes) == 0 {
		return fig9Digest
	}
	return ""
}

// setup runs a short warm-up evaluation (class C1 at 400k cycles,
// checkpointed) so the runtime's heap and the trace chunk pool are warm
// before timing. Evaluate has no set-up a caller can separate from its run,
// so fig9's setup_s times this warm-up.
func (f *fig9) setup() error {
	path := f.store()
	defer os.Remove(path)
	_, err := experiments.Evaluate(context.Background(), experiments.Options{
		Cfg: f.cfg, RunCycles: 400_000, Parallelism: f.par, Classes: []string{"C1"},
		Checkpoint: path,
	})
	return err
}

// run evaluates the full matrix. Its store is removed by the sample's check,
// or with the scratch directory by close when the run fails.
func (f *fig9) run() (sample, error) {
	path := f.store()
	ops := len(f.combos) * len(f.labels)
	ev, err := experiments.Evaluate(context.Background(), experiments.Options{
		Cfg: f.cfg, RunCycles: benchCycles, Parallelism: f.par, Classes: f.opt.classes,
		Checkpoint: path, FailurePolicy: sweep.ContinueOnError,
	})
	if err != nil {
		if jobs := sweep.JobErrors(err); len(jobs) > 0 {
			fmt.Fprintln(os.Stderr, "perfbench: fig9:", err)
			return sample{ops: ops, failed: len(jobs)}, nil
		}
		return sample{}, err
	}
	runs := map[string]cmp.RunResult{}
	for _, cr := range ev.Combos {
		for label, r := range cr.Runs {
			if label != "CC(Best)" { // a copy of the best CC(p%) run
				runs[cr.Combo.Name+"/"+label] = r
			}
		}
	}
	s := sample{ops: ops, failed: ops - len(runs), digest: digestRuns(runs)}
	for _, r := range runs {
		s.simCycles += r.Cycles
		s.simInstr += committed(r)
	}
	// The checkpoint is one of the evaluation's outputs: it must hold
	// exactly the results Evaluate returned.
	digest := s.digest
	s.check = func() bool {
		defer os.Remove(path)
		stored, err := storedDigest(path, runs)
		if err != nil || stored != digest {
			fmt.Fprintf(os.Stderr, "perfbench: fig9: checkpoint store digest %s, want %s (%v)\n", stored, digest, err)
			return false
		}
		return true
	}
	cs, err := ev.Figure(metrics.MetricThroughput)
	if err != nil {
		return sample{}, err
	}
	var avg []string
	for _, name := range experiments.FigureSchemes {
		avg = append(avg, fmt.Sprintf("%s %.4f", name, cs.Values[name][len(cs.Classes)-1]))
	}
	s.note = "fig9 AVG row: " + strings.Join(avg, " ")
	if f.pinned() != "" && f.cfg.Seed == defaultSeed && strings.Join(avg, " ") != fig9AVG {
		s.note += " (want " + fig9AVG + ")"
		s.failed = ops
	}
	return s, nil
}

// traced reruns the evaluation's jobs through sweep.Run with per-cell
// recordings of its own, every layer hook installed. Evaluate's scheme list
// and stream cache are internal, so the trace.* and sweep.job_s figures
// describe this re-run of its job list and cache, not Evaluate itself: a
// change inside Evaluate's stream cache moves the untraced metrics only.
func (f *fig9) traced() (*totals, sample, error) {
	tot := newTotals(f.par)
	cells := &cellCache{m: map[uint64]*cell{}, uses: len(f.labels)}
	var attempts, isoNs atomic.Int64
	var jobs []sweep.Job
	for _, combo := range f.combos {
		combo := combo
		for _, label := range f.labels {
			label := label
			jobs = append(jobs, sweep.Job{
				Key:     combo.Name + "/" + label,
				SeedKey: combo.Name,
				Run: func(seed uint64) (cmp.RunResult, error) {
					start := time.Now()
					attempts.Add(1)
					c := f.cfg
					c.Seed = seed
					cl, err := cells.get(seed, func() ([]isa.Stream, error) {
						return cmp.WorkloadStreams(c, combo.Cores, cmp.PhaseRefs(benchCycles))
					})
					if err != nil {
						return cmp.RunResult{}, err
					}
					defer cells.release(seed, cl, tot)
					streams := make([]isa.Stream, len(cl.recs))
					for i, r := range cl.recs {
						streams[i] = &timedBatch{src: r.Replay()}
					}
					st, err := tracedSim(c, label, benchCycles, streams)
					if err != nil {
						return cmp.RunResult{}, err
					}
					st.jobNs = int64(time.Since(start))
					iso := time.Now()
					st.iso, st.isoErr = isolate(c, benchCycles, st, func(core int) (isa.Stream, error) { return cl.recs[core].Replay(), nil })
					isoNs.Add(int64(time.Since(iso)))
					tot.addSim(st)
					return st.res, nil
				},
			})
		}
	}
	path := f.store()
	defer os.Remove(path)
	start := time.Now()
	runs, err := sweep.Run(context.Background(), sweep.Options{
		Parallelism: f.par, BaseSeed: f.cfg.Seed, Checkpoint: path,
		Fingerprint: "perfbench/fig9/traced", FailurePolicy: sweep.ContinueOnError,
	}, jobs)
	wall := time.Since(start)
	failed := len(sweep.JobErrors(err))
	if err != nil && failed == 0 {
		return nil, sample{}, err
	}
	tot.sweep = true
	tot.workerNs = int64(f.par)*int64(wall) - isoNs.Load()
	tot.jobs = int64(len(jobs))
	tot.failed = int64(failed)
	tot.retried = attempts.Load() - int64(len(jobs))
	if tot.putNs, err = timePuts(f.store(), runs); err != nil {
		return nil, sample{}, err
	}
	s := sample{ops: len(jobs), failed: failed, digest: digestRuns(runs)}
	return tot, s, nil
}

// storedDigest reopens the checkpoint store at path and digests the results
// it holds for the keys of runs; the store must hold no others.
func storedDigest(path string, runs map[string]cmp.RunResult) (string, error) {
	st, err := sweep.OpenStore(path)
	if err != nil {
		return "", err
	}
	defer st.Close()
	if st.Len() != len(runs) {
		return "", fmt.Errorf("store holds %d results, want %d", st.Len(), len(runs))
	}
	stored := make(map[string]cmp.RunResult, len(runs))
	for k := range runs {
		r, ok := st.Get(k)
		if !ok {
			return "", fmt.Errorf("store has no result for %s", k)
		}
		stored[k] = r
	}
	return digestRuns(stored), nil
}

// timePuts writes every result to a fresh checkpoint store and returns the
// time the Put calls took: the sweep's per-job checkpoint cost, measured
// alone on the traced run's own results.
func timePuts(path string, runs map[string]cmp.RunResult) (int64, error) {
	defer os.Remove(path)
	st, err := sweep.OpenStore(path)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	if err := st.SetFingerprint("perfbench/fig9/puts"); err != nil {
		return 0, err
	}
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	start := time.Now()
	for _, k := range keys {
		if err := st.Put(k, runs[k]); err != nil {
			return 0, err
		}
	}
	ns := int64(time.Since(start))
	return ns, st.Close()
}

func (f *fig9) close() error { return os.RemoveAll(f.dir) }

// cell is one (combo, seed) cell's recordings, shared by its jobs.
type cell struct {
	recs []*trace.Recording
	srcs []*recSource
	left int // jobs that have not released the cell yet
}

// cellCache hands every job of a cell the same recordings, as the
// evaluation's stream cache does, and recycles them after the cell's last
// job.
type cellCache struct {
	mu   sync.Mutex
	m    map[uint64]*cell
	uses int
}

func (cc *cellCache) get(seed uint64, build func() ([]isa.Stream, error)) (*cell, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if c := cc.m[seed]; c != nil {
		return c, nil
	}
	live, err := build()
	if err != nil {
		return nil, err
	}
	c := &cell{left: cc.uses}
	srcs := make([]isa.Stream, len(live))
	for i, s := range live {
		src := &recSource{chunked: newChunked(s, recordBatch, 0)}
		c.srcs = append(c.srcs, src)
		srcs[i] = src
	}
	c.recs = trace.RecordAll(srcs)
	cc.m[seed] = c
	return c, nil
}

// release drops one job's hold on the cell; the last one books the cell's
// synthesis and recording work and recycles the recordings.
func (cc *cellCache) release(seed uint64, c *cell, tot *totals) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	c.left--
	if c.left > 0 {
		return
	}
	delete(cc.m, seed)
	for i, src := range c.srcs {
		tot.addRecording(src, c.recs[i])
	}
	trace.RecycleAll(c.recs)
}

// live4 is one 4-core SNUG run on live generators.
type live4 struct {
	cfg config.System
}

func newLive4(seed uint64) (*live4, error) {
	cfg := config.TestScale()
	cfg.Seed = seed
	return &live4{cfg: cfg}, nil
}

func (w *live4) pinned() string { return live4Digest }

// setup runs one warm-up operation so the runtime is warm before timing.
// A live run builds its generators inside RunWorkload and has no set-up of
// its own, so live4's setup_s times this warm-up.
func (w *live4) setup() error {
	_, err := cmp.RunWorkload(w.cfg, "SNUG", bench.MixBench, benchCycles)
	return err
}

func (w *live4) run() (sample, error) {
	r, err := cmp.RunWorkload(w.cfg, "SNUG", bench.MixBench, benchCycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: live4:", err)
		return sample{ops: 1, failed: 1}, nil
	}
	return sample{ops: 1, digest: digestOne(r), simCycles: r.Cycles, simInstr: committed(r)}, nil
}

func (w *live4) traced() (*totals, sample, error) {
	tot := newTotals(1)
	start := time.Now()
	gens, err := cmp.WorkloadStreams(w.cfg, bench.MixBench, cmp.PhaseRefs(benchCycles))
	if err != nil {
		return nil, sample{}, err
	}
	streams := make([]isa.Stream, len(gens))
	for i, g := range gens {
		streams[i] = newChunked(g, recordBatch, 0)
	}
	st, err := tracedSim(w.cfg, "SNUG", benchCycles, streams)
	if err != nil {
		return nil, sample{}, err
	}
	tot.workerNs = int64(time.Since(start))
	st.iso, st.isoErr = isolate(w.cfg, benchCycles, st, func(core int) (isa.Stream, error) {
		gens, err := cmp.WorkloadStreams(w.cfg, bench.MixBench, cmp.PhaseRefs(benchCycles))
		if err != nil {
			return nil, err
		}
		return gens[core], nil
	})
	tot.addSim(st)
	return tot, sample{ops: 1, digest: digestOne(st.res)}, nil
}

func (w *live4) close() error { return nil }

// family returns the scheme family of a spec label ("CC(75%)" → "CC").
func family(label string) string { return schemes.MustParse(label).Family }
