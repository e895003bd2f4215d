package experiments

import (
	"context"
	"fmt"
	"slices"

	"snug/internal/config"
	"snug/internal/faults"
	"snug/internal/metrics"
	"snug/internal/stats"
	"snug/internal/sweep"
)

// ScalingOptions configures the N-core scaling study.
type ScalingOptions struct {
	// BaseCfg is the quad-core system each point scales out from via
	// config.WithCores; it must have Cores == 4.
	BaseCfg config.System
	// CoreCounts are the evaluated widths, e.g. {4, 8, 16}. Each must be
	// a valid config.WithCores width.
	CoreCounts  []int
	RunCycles   int64
	Parallelism int
	Classes     []string // subset of {"C1".."C6"}; nil = all
	Schemes     []string // same semantics as Options.Schemes
	// Checkpoint is a sweep results-store path shared by every point: the
	// study runs as ONE sweep over all (width, combo, scheme) jobs, so an
	// interrupted study resumes mid-axis and a store warmed with some core
	// counts extends to more.
	Checkpoint string
	Progress   func(sweep.Progress)
	// Replicates has the same semantics as Options.Replicates: every
	// (width, combo, scheme) cell runs this many independently-seeded
	// times, and Series reports mean ± 95% CI per width.
	Replicates int
	// NoReplay has the same semantics as Options.NoReplay: disable the
	// trace record/replay cache and synthesize every run's streams live.
	NoReplay bool
	// FailurePolicy, Retry, Salvage, Sync and Faults have Options semantics:
	// the sweep failure model (fail-fast vs. run-everything, retry/backoff,
	// checkpoint salvage and fsync cadence) plus deterministic fault
	// injection. ContinueOnError matters most here — a multi-hour study
	// should not abandon every queued width because one cell failed.
	FailurePolicy sweep.FailurePolicy
	Retry         sweep.RetrySpec
	Salvage       bool
	Sync          int
	Faults        faults.Spec
}

// ScalingPoint is the evaluation at one core count.
type ScalingPoint struct {
	Cores  int
	Cfg    config.System // BaseCfg widened to Cores
	Combos []ComboResult
}

// ScalingResult is the full scaling-study dataset.
type ScalingResult struct {
	Options ScalingOptions
	Points  []ScalingPoint
	// Replicates is the effective replicate count behind every point
	// (max(1, Options.Replicates)).
	Replicates int
}

// scalingFingerprint identifies the study's result-changing inputs: the
// base configuration and run length. Core counts, classes and schemes are
// excluded for the same reason Evaluate excludes Classes/Schemes — they
// select which jobs run, not what a job computes — so a store warmed with
// {4,8} serves a later {4,8,16} study.
// Like fingerprint, it also returns the accepted-on-resume fingerprints of
// older releases whose results remain valid.
func scalingFingerprint(opt ScalingOptions) (fp string, legacy []string, err error) {
	h, err := cfgHash(opt.BaseCfg)
	if err != nil {
		return "", nil, err
	}
	return fmt.Sprintf("scaling/v%d/cycles=%d/cfg=%s", fingerprintVersion, opt.RunCycles, h),
		[]string{fmt.Sprintf("scaling/cycles=%d/cfg=%s", opt.RunCycles, h)}, nil
}

// ScalingStudy evaluates every selected scheme across core counts: for each
// width, the class-consistent scale-out combinations (workloads.ScaleOut)
// run under the L2P baseline plus the selected schemes, all through one
// sweep. Seeds pair per (width, combo): scale-out combo names are unique
// per width, so every scheme at one width sees identical instruction
// streams while widths draw independent streams. Results are bit-identical
// for any Parallelism. Canceling ctx drains and checkpoints in-flight runs
// before returning, like Evaluate.
func ScalingStudy(ctx context.Context, opt ScalingOptions) (*ScalingResult, error) {
	if opt.RunCycles <= 0 {
		return nil, fmt.Errorf("experiments: RunCycles must be positive")
	}
	if len(opt.CoreCounts) == 0 {
		return nil, fmt.Errorf("experiments: scaling study needs at least one core count")
	}
	if opt.BaseCfg.Cores != 4 {
		return nil, fmt.Errorf("experiments: scaling BaseCfg has %d cores, want the quad-core base", opt.BaseCfg.Cores)
	}
	selected, err := selectSchemes(opt.Schemes)
	if err != nil {
		return nil, err
	}
	specs := specsFor(selected)
	reps := opt.Replicates
	if reps < 1 {
		reps = 1
	}

	res := &ScalingResult{Options: opt, Points: make([]ScalingPoint, len(opt.CoreCounts)), Replicates: reps}
	var cache *streamCache
	if !opt.NoReplay {
		cache = newStreamCache()
	}
	var jobs []sweep.Job
	seen := map[int]bool{}
	for i, n := range opt.CoreCounts {
		if seen[n] {
			return nil, fmt.Errorf("experiments: duplicate core count %d", n)
		}
		seen[n] = true
		cfg, err := config.WithCores(opt.BaseCfg, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		combos, err := selectCombos(opt.Classes, n)
		if err != nil {
			return nil, err
		}
		if len(combos) == 0 {
			return nil, fmt.Errorf("experiments: no combos selected for classes %v", opt.Classes)
		}
		res.Points[i] = ScalingPoint{Cores: n, Cfg: cfg, Combos: make([]ComboResult, len(combos))}
		for j, combo := range combos {
			res.Points[i].Combos[j] = ComboResult{Combo: combo}
			jobs = comboJobs(jobs, cache, cfg, combo, specs, opt.RunCycles)
		}
	}

	fp, legacy, err := scalingFingerprint(opt)
	if err != nil {
		return nil, err
	}
	results, err := sweep.Run(ctx, sweep.Options{
		Parallelism:        opt.Parallelism,
		BaseSeed:           opt.BaseCfg.Seed,
		Checkpoint:         opt.Checkpoint,
		Salvage:            opt.Salvage,
		Sync:               opt.Sync,
		Fingerprint:        fp,
		AcceptFingerprints: legacy,
		Replicates:         reps,
		FailurePolicy:      opt.FailurePolicy,
		Retry:              opt.Retry,
		PutHook:            opt.Faults.PutHook(opt.BaseCfg.Seed),
		OnProgress:         opt.Progress,
	}, opt.Faults.Wrap(opt.BaseCfg.Seed, jobs))
	if err != nil {
		return nil, evalErr(err)
	}

	for i := range res.Points {
		for j := range res.Points[i].Combos {
			if err := res.Points[i].Combos[j].collect(results, selected, reps); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// ScalingSeries is one metric's scaling table: per core count, per scheme,
// the cross-class average (the figures' AVG row) at that width — averaged
// across replicates, with 95% confidence half-widths when replicated.
type ScalingSeries struct {
	Metric  metrics.MetricKind
	Schemes []string             // column labels present, in FigureSchemes order
	Cores   []int                // row labels
	Values  map[string][]float64 // scheme label -> mean value per core count
	// CI mirrors Values with each cell's 95% confidence half-width; nil for
	// single-replicate studies.
	CI map[string][]float64
	// Replicates is the replicate count behind every cell (1 when CI is nil).
	Replicates int
}

// Cell returns row i of the scheme's series as a mean-with-interval.
func (s ScalingSeries) Cell(scheme string, i int) stats.Interval {
	iv := stats.Interval{Mean: s.Values[scheme][i], N: s.Replicates}
	if s.CI != nil {
		iv.Half = s.CI[scheme][i]
	}
	if iv.N < 1 {
		iv.N = 1
	}
	return iv
}

// Series computes the scaling table for the chosen metric. Every point must
// expose the same scheme set; ragged data across points is an error.
func (r *ScalingResult) Series(metric metrics.MetricKind) (ScalingSeries, error) {
	reps := r.Replicates
	if reps < 1 {
		reps = 1
	}
	s := ScalingSeries{Metric: metric, Values: make(map[string][]float64), Replicates: reps}
	if reps > 1 {
		s.CI = make(map[string][]float64)
	}
	for i, p := range r.Points {
		ev := Evaluation{Combos: p.Combos, Replicates: reps}
		cs, err := ev.Figure(metric)
		if err != nil {
			return ScalingSeries{}, fmt.Errorf("at %d cores: %w", p.Cores, err)
		}
		if i == 0 {
			s.Schemes = cs.Schemes
		} else if !slices.Equal(s.Schemes, cs.Schemes) {
			return ScalingSeries{}, fmt.Errorf(
				"experiments: scheme sets differ across core counts (%v at %d cores vs %v at %d cores)",
				s.Schemes, r.Points[0].Cores, cs.Schemes, p.Cores)
		}
		s.Cores = append(s.Cores, p.Cores)
		avgRow := len(cs.Classes) - 1 // the AVG row
		for _, scheme := range cs.Schemes {
			s.Values[scheme] = append(s.Values[scheme], cs.Values[scheme][avgRow])
			if s.CI != nil {
				s.CI[scheme] = append(s.CI[scheme], cs.CI[scheme][avgRow])
			}
		}
	}
	return s, nil
}
