package experiments

import (
	"context"
	"fmt"
	"slices"
	"strconv"

	"snug/internal/config"
	"snug/internal/metrics"
)

// ScalingPoint is the evaluation at one core count.
type ScalingPoint struct {
	Cores  int
	Cfg    config.System // Options.Cfg widened to Cores
	Combos []ComboResult
}

// ScalingResult is the full scaling-study dataset.
type ScalingResult struct {
	Points []ScalingPoint
	// Replicates is the effective replicate count behind every point
	// (max(1, Options.Replicates)).
	Replicates int
}

// ScalingStudy evaluates every selected scheme across core counts: for each
// width, the class-consistent scale-out combinations (workloads.ScaleOut)
// run under the L2P baseline plus the selected schemes, all through one
// sweep. opt.Cfg is the quad-core base each width scales out from via
// config.WithCores; every other option means what it does for Evaluate.
// Seeds pair per (width, combo): scale-out combo names are unique per
// width, so every scheme at one width sees identical instruction streams
// while widths draw independent streams. Results are bit-identical for any
// Parallelism. Canceling ctx drains and checkpoints in-flight runs before
// returning, like Evaluate.
func ScalingStudy(ctx context.Context, opt Options, coreCounts []int) (*ScalingResult, error) {
	if len(coreCounts) == 0 {
		return nil, fmt.Errorf("experiments: scaling study needs at least one core count")
	}
	if opt.Cfg.Cores != 4 {
		return nil, fmt.Errorf("experiments: scaling Cfg has %d cores, want the quad-core base", opt.Cfg.Cores)
	}
	points := make([]ScalingPoint, len(coreCounts))
	for i, n := range coreCounts {
		if slices.Contains(coreCounts[:i], n) {
			return nil, fmt.Errorf("experiments: duplicate core count %d", n)
		}
		cfg, err := config.WithCores(opt.Cfg, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		points[i] = ScalingPoint{Cores: n, Cfg: cfg}
	}
	reps, err := sweepPoints(ctx, "scaling", opt, points)
	if err != nil {
		return nil, err
	}
	return &ScalingResult{Points: points, Replicates: reps}, nil
}

// Series computes the scaling table for the chosen metric: a figure
// dataset with one row per core count, labelled by the count, whose cells
// are the cross-class average (the figures' AVG row) at that width —
// averaged across replicates, with 95% confidence half-widths when
// replicated. Every point must expose the same scheme set; ragged data
// across points is an error.
func (r *ScalingResult) Series(metric metrics.MetricKind) (ClassSeries, error) {
	s := ClassSeries{Values: make(map[string][]float64), Replicates: max(r.Replicates, 1)}
	if s.Replicates > 1 {
		s.CI = make(map[string][]float64)
	}
	for i, p := range r.Points {
		ev := Evaluation{Combos: p.Combos, Replicates: s.Replicates}
		cs, err := ev.Figure(metric)
		if err != nil {
			return ClassSeries{}, fmt.Errorf("at %d cores: %w", p.Cores, err)
		}
		if i == 0 {
			s.Schemes = cs.Schemes
		} else if !slices.Equal(s.Schemes, cs.Schemes) {
			return ClassSeries{}, fmt.Errorf(
				"experiments: scheme sets differ across core counts (%v at %d cores vs %v at %d cores)",
				s.Schemes, r.Points[0].Cores, cs.Schemes, p.Cores)
		}
		s.Classes = append(s.Classes, strconv.Itoa(p.Cores))
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
