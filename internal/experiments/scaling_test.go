package experiments_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/metrics"
	"snug/internal/sweep"
)

// scalingOpts is the small fixture study, run at widths 4 and 8: the C1
// stress class, SNUG only (plus the always-on L2P baseline).
func scalingOpts() experiments.Options {
	return experiments.Options{
		Cfg:       config.TestScale(),
		RunCycles: 120_000,
		Classes:   []string{"C1"},
		Schemes:   []string{"SNUG"},
	}
}

// TestScalingStudyShape checks the study's structure: one point per core
// count, width-matched combos and runs, and a series row per width.
func TestScalingStudyShape(t *testing.T) {
	res, err := experiments.ScalingStudy(context.Background(), scalingOpts(), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	for i, want := range []int{4, 8} {
		p := res.Points[i]
		if p.Cores != want || p.Cfg.Cores != want {
			t.Errorf("point %d: cores %d / cfg %d, want %d", i, p.Cores, p.Cfg.Cores, want)
		}
		if len(p.Combos) != 3 { // C1 has three stress combos
			t.Errorf("point %d: %d combos, want 3", i, len(p.Combos))
		}
		for _, cr := range p.Combos {
			if len(cr.Combo.Cores) != want {
				t.Errorf("point %d: combo %s is %d wide", i, cr.Combo.Name, len(cr.Combo.Cores))
			}
			if cr.Runs["L2P"].Cycles == 0 {
				t.Errorf("point %d: combo %s has no baseline", i, cr.Combo.Name)
			}
			if _, ok := cr.RepComparisons[0]["SNUG"]; !ok {
				t.Errorf("point %d: combo %s missing SNUG comparison", i, cr.Combo.Name)
			}
		}
	}

	s, err := res.Series(metrics.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Classes, []string{"4", "8"}) || !reflect.DeepEqual(s.Schemes, []string{"SNUG"}) {
		t.Fatalf("series rows %v schemes %v", s.Classes, s.Schemes)
	}
	for i := range s.Classes {
		if v := s.Values["SNUG"][i]; v <= 0 {
			t.Errorf("normalized throughput %v at %s cores", v, s.Classes[i])
		}
	}
}

// TestScalingStudyDeterminism: the study is one sweep, so its output is
// bit-identical for any worker count.
func TestScalingStudyDeterminism(t *testing.T) {
	run := func(par int) []experiments.ScalingPoint {
		opt := scalingOpts()
		opt.Parallelism = par
		res, err := experiments.ScalingStudy(context.Background(), opt, []int{4, 8})
		if err != nil {
			t.Fatal(err)
		}
		return res.Points
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Error("ScalingStudy output differs between Parallelism 1 and 4")
	}
}

// TestScalingStudyResume: a store warmed with one core count extends to a
// wider axis, restoring the shared width's runs, and the checkpoint keys
// are the stable combo/spec strings.
func TestScalingStudyResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "scaling.sweep.json")
	opt := scalingOpts()
	opt.Checkpoint = ckpt
	first, err := experiments.ScalingStudy(context.Background(), opt, []int{4})
	if err != nil {
		t.Fatal(err)
	}

	var last sweep.Progress
	opt.Progress = func(p sweep.Progress) { last = p }
	second, err := experiments.ScalingStudy(context.Background(), opt, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if last.Restored != 6 { // 3 combos x (L2P + SNUG) at width 4
		t.Errorf("restored %d runs, want the 6 width-4 runs", last.Restored)
	}
	if !reflect.DeepEqual(first.Points[0].Combos, second.Points[0].Combos) {
		t.Error("restored width-4 point differs from the original")
	}

	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"4xammp/L2P"`, `"4xammp/SNUG"`, `"8xammp/SNUG"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("checkpoint store missing stable key %s", key)
		}
	}
}

// TestScalingStudyValidation covers option errors.
func TestScalingStudyValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		mut   func(*experiments.Options)
		cores []int
	}{
		"zero RunCycles":       {func(o *experiments.Options) { o.RunCycles = 0 }, []int{4, 8}},
		"empty core counts":    {func(*experiments.Options) {}, nil},
		"duplicate core count": {func(*experiments.Options) {}, []int{4, 4}},
		"invalid core count":   {func(*experiments.Options) {}, []int{6}},
		"non-quad base config": {func(o *experiments.Options) { o.Cfg.Cores = 8 }, []int{4, 8}},
		"unknown scheme":       {func(o *experiments.Options) { o.Schemes = []string{"NOPE"} }, []int{4, 8}},
	} {
		opt := scalingOpts()
		tc.mut(&opt)
		if _, err := experiments.ScalingStudy(context.Background(), opt, tc.cores); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
