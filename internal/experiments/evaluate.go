// Package experiments orchestrates the paper's evaluation: the
// characterization of Figures 1–3, the scheme comparison of Figures 9–11
// over the 21 workload combinations of Table 8, the overhead tables, the
// ablation studies of SNUG's design choices, and the N-core scaling study
// that extends the matrix beyond the paper's quad-core system. Sweep is
// the one sweep driver: Evaluate, ScalingStudy, cmd/snugsim and the
// ablation in cmd/experiments each hand it one Options and a list of
// cells, groups of runs that share instruction streams through
// cmp.StreamCache. The package is the engine behind cmd/experiments,
// cmd/snugsim, the examples, and the repository's benchmark suite.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/faults"
	"snug/internal/metrics"
	"snug/internal/schemes"
	"snug/internal/stats"
	"snug/internal/sweep"
	"snug/internal/workloads"
)

// CCPercents are the spill probabilities §4.1 evaluates; CC(Best) is the
// best-performing one per workload.
var CCPercents = config.CCSpillPercents

// FigureSchemes are the scheme labels of Figures 9–11, in plot order.
var FigureSchemes = []string{"L2S", "CC(Best)", "DSR", "SNUG"}

// Options configures an evaluation (Evaluate), a scaling study
// (ScalingStudy) or any other sweep (Sweep, which reads every field but
// Classes and Schemes). The sweep flags of both commands bind straight
// into it (cli.SweepFlags).
type Options struct {
	// Cfg is the simulated system. For Evaluate its core count selects the
	// evaluation width: 4 runs the paper's Table 8 matrix, 8/16/... run the
	// class-consistent scale-out combinations of workloads.ScaleOut.
	// ScalingStudy takes it as the quad-core base it widens to each width.
	Cfg         config.System
	RunCycles   int64
	Parallelism int      // concurrent simulations (0 = runtime.GOMAXPROCS(0))
	Classes     []string // subset of {"C1".."C6"}; nil = all

	// Schemes restricts the evaluated schemes to a subset of
	// {"L2S", "CC", "DSR", "SNUG"}; nil means all. The L2P baseline always
	// runs — every reported metric is normalized to it — so "L2P" entries
	// are accepted and ignored, and ["L2P"] alone runs just the baseline.
	Schemes []string
	// Checkpoint is a sweep results-store path: completed runs found there
	// are restored instead of re-simulated, and new runs are appended, so an
	// interrupted evaluation resumes where it stopped. "" disables. A
	// scaling study keeps every width in one store, so a store warmed with
	// some core counts extends to more.
	Checkpoint string
	// Progress, when set, receives a snapshot after each completed run.
	Progress func(sweep.Progress)
	// Replicates runs every (combo, scheme) cell this many times with
	// independent instruction streams (0 and 1 both mean one run, today's
	// exact output and checkpoint keys). Schemes stay paired within each
	// replicate, and the figures report mean ± 95% CI across replicates.
	Replicates int
	// FailurePolicy, Retry, Salvage and Sync pass straight through to the
	// sweep engine's failure model (sweep.Options): fail-fast vs.
	// run-everything on job failures, retry/backoff for transient faults,
	// quarantine-and-continue for corrupt checkpoint lines, and the
	// checkpoint fsync cadence. None of them can change results — retries
	// reuse the job's identity-derived seed, and salvaged jobs simply rerun.
	FailurePolicy sweep.FailurePolicy
	Retry         sweep.RetrySpec
	Salvage       bool
	Sync          int
	// Faults injects deterministic failures (internal/faults) into every
	// job and checkpoint write, for chaos testing the failure model. The
	// zero spec — the default — injects nothing.
	Faults faults.Spec
}

// ComboResult is the outcome for one workload combination. Runs and
// CCBestPct describe replicate 0 (the only replicate of a single-run
// evaluation); RepComparisons holds every replicate's Table 5 comparisons,
// RepComparisons[r] being replicate r's.
type ComboResult struct {
	Combo          workloads.Combo
	Runs           map[string]cmp.RunResult        // keyed by spec label, with L2P and the CC(Best) copy
	CCBestPct      int                             // spill probability behind CC(Best)
	RepComparisons []map[string]metrics.Comparison // keyed by FigureSchemes labels
}

// Evaluation is the full Figures 9–11 dataset.
type Evaluation struct {
	Combos []ComboResult
	// Replicates is the effective replicate count behind every combo
	// (max(1, Options.Replicates)).
	Replicates int
}

// evalSchemes are the non-baseline scheme families the full matrix
// evaluates, in figure order.
var evalSchemes = []string{"L2S", "CC", "DSR", "SNUG"}

// baselineSpec labels the baseline every metric normalizes to.
var baselineSpec = schemes.Spec{Family: "L2P"}

// selectSchemes validates and normalizes the Schemes option into evalSchemes
// order. "L2P" entries are dropped — the baseline always runs.
func selectSchemes(want []string) ([]string, error) {
	if len(want) == 0 {
		return evalSchemes, nil
	}
	requested := map[string]bool{}
	for _, s := range want {
		if s == "L2P" {
			continue
		}
		found := false
		for _, known := range evalSchemes {
			if s == known {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: unknown scheme %q (want a subset of %v)", s, evalSchemes)
		}
		requested[s] = true
	}
	var out []string
	for _, s := range evalSchemes {
		if requested[s] {
			out = append(out, s)
		}
	}
	// An empty selection (e.g. Schemes = ["L2P"]) is a baseline-only run.
	return out, nil
}

// specsFor expands selected scheme families into concrete specs: "CC"
// becomes one spec per evaluated spill probability (CC(Best) is selected
// from them after the sweep), every other family is a bare spec.
func specsFor(selected []string) []schemes.Spec {
	var specs []schemes.Spec
	for _, family := range selected {
		if family == "CC" {
			for _, pct := range CCPercents {
				specs = append(specs, schemes.MustParse(fmt.Sprintf("CC(%d%%)", pct)))
			}
			continue
		}
		specs = append(specs, schemes.MustParse(family))
	}
	return specs
}

// jobKey identifies one (combo, labelled run) pair in the sweep; it is also
// the run's checkpoint key, so it must stay stable across releases. Labels
// are canonical spec strings (schemes.Spec.String), giving keys like
// "4xammp/CC(75%)".
func jobKey(combo, label string) string { return combo + "/" + label }

// collect fills the combo's runs from the sweep results, looking each of
// cell's runs up by its key, and finalizes the comparisons for the selected
// scheme families, once per replicate. Replicate 0 also fills Runs and
// CCBestPct.
func (cr *ComboResult) collect(results map[string]cmp.RunResult, cell *Cell, selected []string, reps int) error {
	cr.RepComparisons = make([]map[string]metrics.Comparison, reps)
	for r := 0; r < reps; r++ {
		runs := make(map[string]cmp.RunResult, len(cell.Runs)+1)
		for _, run := range cell.Runs {
			if res, ok := results[sweep.ReplicateKey(run.Key, r)]; ok {
				runs[run.Scheme] = res
			}
		}
		pct, comps, err := finalize(cr.Combo.Name, runs, selected)
		if err != nil {
			if r > 0 {
				return fmt.Errorf("replicate %d: %w", r, err)
			}
			return err
		}
		cr.RepComparisons[r] = comps
		if r == 0 {
			cr.Runs = runs
			cr.CCBestPct = pct
		}
	}
	return nil
}

// Evaluate runs the evaluation matrix through the sweep engine: for every
// selected combo, the L2P baseline plus every selected scheme, with CC at
// every spill probability (from which CC(Best) is selected by throughput,
// per §4.1). Simulations run concurrently but results are deterministic:
// every run's seed derives from its combo identity via the sweep engine, so
// a combo's schemes see identical instruction streams (paired comparisons)
// and the output is bit-identical for any Parallelism. Canceling ctx drains
// and checkpoints in-flight runs, then returns the partial-progress error
// (a later call with the same Checkpoint resumes).
func Evaluate(ctx context.Context, opt Options) (*Evaluation, error) {
	points := []ScalingPoint{{Cores: opt.Cfg.Cores, Cfg: opt.Cfg}}
	reps, err := sweepPoints(ctx, "evaluate", opt, points)
	if err != nil {
		return nil, err
	}
	return &Evaluation{Combos: points[0].Combos, Replicates: reps}, nil
}

// sweepPoints is what Evaluate and ScalingStudy share. On every point's
// system it makes one cell per selected combo, seeded by the combo's name,
// of the L2P baseline and the selected schemes, sweeps them all at once,
// and fills the point's Combos. It returns the effective replicate count.
func sweepPoints(ctx context.Context, kind string, opt Options, points []ScalingPoint) (int, error) {
	selected, err := selectSchemes(opt.Schemes)
	if err != nil {
		return 0, err
	}
	labels := []string{baselineSpec.String()}
	for _, spec := range specsFor(selected) {
		labels = append(labels, spec.String())
	}

	var cells []Cell
	for i := range points {
		p := &points[i]
		combos, err := selectCombos(opt.Classes, p.Cfg.Cores)
		if err != nil {
			return 0, err
		}
		for _, combo := range combos {
			p.Combos = append(p.Combos, ComboResult{Combo: combo})
			cell := Cell{SeedKey: combo.Name, Cfg: p.Cfg, Benchmarks: combo.Cores, Runs: make([]Run, len(labels))}
			for j, label := range labels {
				cell.Runs[j] = Run{Key: jobKey(combo.Name, label), Scheme: label}
			}
			cells = append(cells, cell)
		}
	}

	results, err := Sweep(ctx, opt, kind, "", cells)
	if err != nil {
		return 0, evalErr(err)
	}
	reps, next := max(opt.Replicates, 1), 0
	for i := range points {
		for j := range points[i].Combos {
			if err := points[i].Combos[j].collect(results, &cells[next], selected, reps); err != nil {
				return 0, err
			}
			next++
		}
	}
	return reps, nil
}

// A Cell is a group of runs that share one seed key, and so one set of
// instruction streams, which cmp.StreamCache runs through the cores' front
// ends once for all of them. Figures 9-11 normalize within a cell: a
// combo's schemes against its L2P run.
type Cell struct {
	SeedKey    string        // the sweep.Job SeedKey of every run
	Cfg        config.System // the system; the sweep sets its Seed
	Benchmarks []string      // one per core
	Runs       []Run
}

// A Run is one job of a cell.
type Run struct {
	Key    string // checkpoint key, unique in the sweep
	Scheme string // scheme spec (schemes.Parse)
	// Change, when set, alters the cell's system for this run. It may
	// change only what lies below the cores' front ends, such as a scheme's
	// parameters: the cell's runs share one set of op tapes, and the stream
	// cache refuses a run whose front end differs.
	Change func(config.System) config.System
}

// Sweep runs every run of cells as one sweep, the one sweep driver of
// every front end, and returns the results by run key (replicate r > 0
// under sweep.ReplicateKey). Each run's seed derives from opt.Cfg.Seed and
// its cell's SeedKey, so results are bit-identical for any Parallelism;
// the checkpoint fingerprint is sweep.Fingerprint(kind, opt.RunCycles,
// workload, opt.Cfg). Errors come back without this package's prefix, so
// each front end renders them in its own terms (see evalErr).
func Sweep(ctx context.Context, opt Options, kind, workload string, cells []Cell) (map[string]cmp.RunResult, error) {
	if opt.RunCycles <= 0 {
		return nil, errors.New("RunCycles must be positive")
	}
	cache, cycles := cmp.NewStreamCache(), opt.RunCycles
	var jobs []sweep.Job
	for i := range cells {
		for j, run := range cells[i].Runs {
			// The closure captures the cell by index, not by copy, so a
			// job costs one closure whatever the size of the system.
			i, j := i, j
			jobs = append(jobs, sweep.Job{
				Key:     run.Key,
				SeedKey: cells[i].SeedKey,
				Run: func(seed uint64) (cmp.RunResult, error) {
					c, run := &cells[i], &cells[i].Runs[j]
					cfg := c.Cfg
					cfg.Seed = seed
					if run.Change != nil {
						cfg = run.Change(cfg)
					}
					return cache.Run(cfg, run.Scheme, c.Benchmarks, cycles, len(c.Runs))
				},
			})
		}
	}
	fp, err := sweep.Fingerprint(kind, cycles, workload, opt.Cfg)
	if err != nil {
		return nil, err
	}
	return sweep.Run(ctx, sweep.Options{
		Parallelism:   opt.Parallelism,
		BaseSeed:      opt.Cfg.Seed,
		Checkpoint:    opt.Checkpoint,
		Salvage:       opt.Salvage,
		Sync:          opt.Sync,
		Fingerprint:   fp,
		Replicates:    opt.Replicates,
		FailurePolicy: opt.FailurePolicy,
		Retry:         opt.Retry,
		PutHook:       opt.Faults.PutHook(opt.Cfg.Seed),
		OnProgress:    opt.Progress,
	}, opt.Faults.Wrap(opt.Cfg.Seed, jobs))
}

// evalErr renders a sweep failure with combo + run (+ replicate) context.
// Only a lone *JobError gets the rewrite: an aggregate (ContinueOnError,
// or an interruption alongside failures) passes through wrapped whole, so
// no failure is silently collapsed into the first — each JobError inside
// already carries its job key.
func evalErr(err error) error {
	if je, ok := err.(*sweep.JobError); ok {
		base, rep := sweep.SplitReplicateKey(je.Key)
		if combo, label, ok := strings.Cut(base, "/"); ok {
			if rep > 0 {
				return fmt.Errorf("experiments: combo %s, run %s, replicate %d: %w", combo, label, rep, je.Err)
			}
			return fmt.Errorf("experiments: combo %s, run %s: %w", combo, label, je.Err)
		}
	}
	return fmt.Errorf("experiments: %w", err)
}

// finalize selects CC(Best) and computes the Table 5 comparisons for the
// schemes that ran, from one replicate's runs (which it extends with the
// derived "CC(Best)" entry).
func finalize(combo string, runs map[string]cmp.RunResult, selected []string) (ccBestPct int, comps map[string]metrics.Comparison, err error) {
	sel := map[string]bool{}
	for _, s := range selected {
		sel[s] = true
	}
	ccBestPct = -1
	if sel["CC"] {
		bestPct, bestTput := -1, 0.0
		for _, pct := range CCPercents {
			r, ok := runs[fmt.Sprintf("CC(%d%%)", pct)]
			if !ok {
				return 0, nil, fmt.Errorf("experiments: combo %s missing CC(%d%%) run", combo, pct)
			}
			if put := r.Throughput(); bestPct < 0 || put > bestTput {
				bestPct, bestTput = pct, put
			}
		}
		ccBestPct = bestPct
		runs["CC(Best)"] = runs[fmt.Sprintf("CC(%d%%)", bestPct)]
	}

	baseline := runs[baselineSpec.String()]
	comps = make(map[string]metrics.Comparison)
	for _, label := range FigureSchemes {
		scheme := label
		if label == "CC(Best)" {
			scheme = "CC"
		}
		if !sel[scheme] {
			continue
		}
		r, ok := runs[label]
		if !ok {
			return 0, nil, fmt.Errorf("experiments: combo %s missing %s run", combo, label)
		}
		comp, err := metrics.Compare(baseline, r)
		if err != nil {
			return 0, nil, fmt.Errorf("experiments: combo %s: %w", combo, err)
		}
		comp.Scheme = label
		comps[label] = comp
	}
	return ccBestPct, comps, nil
}

// selectCombos filters the width-core scale-out matrix by class labels,
// refusing a label outside workloads.Classes. Width 4 (or 0) is the
// paper's Table 8.
func selectCombos(classes []string, width int) ([]workloads.Combo, error) {
	if width == 0 {
		width = 4
	}
	all, err := workloads.ScaleOut(width)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if len(classes) == 0 {
		return all, nil
	}
	known := workloads.Classes()
	want := map[string]bool{}
	for _, c := range classes {
		if !slices.Contains(known, c) {
			return nil, fmt.Errorf("experiments: unknown class %q (known: %s)", c, strings.Join(known, ", "))
		}
		want[c] = true
	}
	var out []workloads.Combo
	for _, c := range all {
		if want[c.Class] {
			out = append(out, c)
		}
	}
	return out, nil
}

// ClassSeries is one figure's dataset: per class (plus AVG), per scheme,
// the geometric-mean metric value — averaged across replicates, with a
// Student-t 95% confidence interval when the evaluation was replicated. A
// scaling table (ScalingResult.Series) has the same shape with one row per
// core count.
type ClassSeries struct {
	Schemes []string             // column labels present, in FigureSchemes order
	Classes []string             // row labels: C1..C6 and AVG, or core counts
	Values  map[string][]float64 // scheme label -> mean value per row
	// CI is each Values cell's 95% confidence half-width across replicates,
	// keyed and indexed like Values. It is nil for single-replicate
	// evaluations, whose Values are point estimates with no spread
	// information.
	CI map[string][]float64
	// Replicates is the replicate count behind every cell (1 when CI is nil).
	Replicates int
}

// Cell returns row i of the scheme's series as a mean-with-interval.
func (cs ClassSeries) Cell(scheme string, i int) stats.Interval {
	iv := stats.Interval{Mean: cs.Values[scheme][i], N: cs.Replicates}
	if cs.CI != nil {
		iv.Half = cs.CI[scheme][i]
	}
	if iv.N < 1 {
		iv.N = 1
	}
	return iv
}

// Figure computes the Figure 9/10/11 dataset for the chosen metric. Only
// schemes the evaluation actually ran appear (see Options.Schemes); a
// scheme must be present in every combo — ragged data (a scheme missing
// from some combos, e.g. a partial or filtered run) is an error rather than
// a silently dropped or skewed series. With Replicates > 1 each cell is the
// mean of the per-replicate class values, qualified by its 95% CI.
func (ev *Evaluation) Figure(metric metrics.MetricKind) (ClassSeries, error) {
	classes := presentClasses(ev.Combos)
	reps := ev.Replicates
	if reps < 1 {
		reps = 1
	}
	cs := ClassSeries{
		Classes:    append(append([]string{}, classes...), "AVG"),
		Values:     make(map[string][]float64),
		Replicates: reps,
	}
	if reps > 1 {
		cs.CI = make(map[string][]float64)
	}
	for _, scheme := range FigureSchemes {
		present := 0
		for _, cr := range ev.Combos {
			if len(cr.RepComparisons) != reps {
				return ClassSeries{}, fmt.Errorf(
					"experiments: combo %s carries %d replicates, evaluation has %d",
					cr.Combo.Name, len(cr.RepComparisons), reps)
			}
			if _, ok := cr.RepComparisons[0][scheme]; ok {
				present++
			}
		}
		if present == 0 {
			continue
		}
		if present != len(ev.Combos) {
			return ClassSeries{}, fmt.Errorf(
				"experiments: scheme %s present in %d of %d combos — ragged evaluation data",
				scheme, present, len(ev.Combos))
		}
		cs.Schemes = append(cs.Schemes, scheme)
		// perRep[r] accumulates replicate r's class-row values so the AVG
		// row can be the geometric mean within each replicate before the
		// mean ± CI is taken across replicates.
		perRep := make([][]float64, reps)
		var rows, halfs []float64
		cell := func(vals []float64) {
			iv := stats.MeanCI(vals)
			rows = append(rows, iv.Mean)
			halfs = append(halfs, iv.Half)
		}
		for _, class := range classes {
			vals := make([]float64, reps)
			for r := 0; r < reps; r++ {
				var comps []metrics.Comparison
				for _, cr := range ev.Combos {
					if cr.Combo.Class == class {
						comps = append(comps, cr.RepComparisons[r][scheme])
					}
				}
				vals[r] = metrics.ClassMean(metric, comps)
				perRep[r] = append(perRep[r], vals[r])
			}
			cell(vals)
		}
		avg := make([]float64, reps)
		for r := 0; r < reps; r++ {
			avg[r] = stats.GeoMean(perRep[r])
		}
		cell(avg)
		cs.Values[scheme] = rows
		if cs.CI != nil {
			cs.CI[scheme] = halfs
		}
	}
	return cs, nil
}

// presentClasses returns the ordered class labels present in the results.
func presentClasses(combos []ComboResult) []string {
	seen := map[string]bool{}
	for _, c := range combos {
		seen[c.Combo.Class] = true
	}
	var out []string
	for _, c := range workloads.Classes() {
		if seen[c] {
			out = append(out, c)
		}
	}
	return out
}
