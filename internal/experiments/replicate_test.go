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

// repOpts is the small replicated fixture: the C1 stress class, SNUG only,
// three replicates at a short run length.
func repOpts() experiments.Options {
	return experiments.Options{
		Cfg: config.TestScale(), RunCycles: 60_000,
		Classes: []string{"C1"}, Schemes: []string{"SNUG"}, Replicates: 3,
	}
}

// TestEvaluateReplicateKeys pins the replicated checkpoint key grammar:
// replicate 0 keeps the historic unsuffixed "combo/spec" keys byte-for-byte
// (so existing stores keep resuming), replicates 1+ append "@r<n>", and
// "@r0" never appears anywhere in a store.
func TestEvaluateReplicateKeys(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "reps.sweep.json")
	opt := repOpts()
	opt.Checkpoint = ckpt
	if _, err := experiments.Evaluate(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"4xammp/L2P"`, `"4xammp/SNUG"`, // replicate 0: today's exact keys
		`"4xammp/SNUG@r1"`, `"4xammp/SNUG@r2"`, `"4xparser/L2P@r2"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("checkpoint store missing key %s", key)
		}
	}
	if strings.Contains(string(raw), "@r0") {
		t.Error("checkpoint store contains an @r0 key; replicate 0 must stay unsuffixed")
	}
}

// TestEvaluateReplicatesShape: the evaluation carries one comparison set
// per replicate, the figures gain finite confidence intervals, and a
// single-replicate evaluation keeps CI-less output.
func TestEvaluateReplicatesShape(t *testing.T) {
	ev, err := experiments.Evaluate(context.Background(), repOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Replicates != 3 {
		t.Fatalf("Replicates = %d, want 3", ev.Replicates)
	}
	for _, cr := range ev.Combos {
		if len(cr.RepComparisons) != 3 {
			t.Fatalf("combo %s has %d replicate comparisons, want 3", cr.Combo.Name, len(cr.RepComparisons))
		}
		for r, comps := range cr.RepComparisons {
			if _, ok := comps["SNUG"]; !ok {
				t.Errorf("combo %s replicate %d missing SNUG comparison", cr.Combo.Name, r)
			}
		}
	}
	fig, err := ev.Figure(metrics.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Replicates != 3 || fig.CI == nil {
		t.Fatalf("figure replicates=%d CI nil=%v, want 3 with intervals", fig.Replicates, fig.CI == nil)
	}
	for i := range fig.Classes {
		iv := fig.Cell("SNUG", i)
		if iv.Mean <= 0 || iv.Half < 0 || iv.N != 3 {
			t.Errorf("row %s interval %+v", fig.Classes[i], iv)
		}
	}

	opt := repOpts()
	opt.Replicates = 1
	single, err := experiments.Evaluate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	sfig, err := single.Figure(metrics.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if sfig.CI != nil || sfig.Replicates != 1 {
		t.Errorf("single-replicate figure has CI=%v replicates=%d, want point estimates", sfig.CI, sfig.Replicates)
	}
	// Replicate 0 IS the unreplicated run: means can differ (they average
	// three streams), but the underlying replicate-0 comparisons match.
	for i, cr := range single.Combos {
		if !reflect.DeepEqual(cr.RepComparisons, ev.Combos[i].RepComparisons[:1]) {
			t.Errorf("combo %s: unreplicated run differs from replicate 0", cr.Combo.Name)
		}
	}
}

// TestEvaluateReplicatesDeterminism: replicated evaluations — values AND
// confidence intervals — are bit-identical across worker counts.
func TestEvaluateReplicatesDeterminism(t *testing.T) {
	run := func(par int) experiments.ClassSeries {
		opt := repOpts()
		opt.Parallelism = par
		ev, err := experiments.Evaluate(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		fig, err := ev.Figure(metrics.MetricThroughput)
		if err != nil {
			t.Fatal(err)
		}
		return fig
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Error("replicated figure differs between Parallelism 1 and 4")
	}
}

// TestEvaluateReplicatesResume: a store written by a single-replicate
// evaluation extends to a replicated one — the replicate-0 runs restore
// (same keys, same fingerprint), only replicates 1+ simulate — and
// replicate 0 of the result equals the original evaluation.
func TestEvaluateReplicatesResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "extend.sweep.json")
	opt := repOpts()
	opt.Replicates = 1
	opt.Checkpoint = ckpt
	single, err := experiments.Evaluate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	opt.Replicates = 3
	var last sweep.Progress
	opt.Progress = func(p sweep.Progress) { last = p }
	replicated, err := experiments.Evaluate(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := last.Total / 3; last.Restored != want {
		t.Errorf("restored %d of %d runs, want the %d replicate-0 runs", last.Restored, last.Total, want)
	}
	for i, cr := range replicated.Combos {
		if !reflect.DeepEqual(cr.RepComparisons[0], single.Combos[i].RepComparisons[0]) {
			t.Errorf("combo %s: replicate 0 differs from the single-replicate store it restored", cr.Combo.Name)
		}
	}
}

// TestScalingReplicates: the scaling study accepts Replicates and reports
// interval-qualified series, deterministic across worker counts.
func TestScalingReplicates(t *testing.T) {
	run := func(par int) experiments.ClassSeries {
		opt := scalingOpts()
		opt.Replicates = 2
		opt.Parallelism = par
		res, err := experiments.ScalingStudy(context.Background(), opt, []int{4, 8})
		if err != nil {
			t.Fatal(err)
		}
		s, err := res.Series(metrics.MetricThroughput)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := run(1)
	if s.Replicates != 2 || s.CI == nil {
		t.Fatalf("series replicates=%d CI nil=%v, want 2 with intervals", s.Replicates, s.CI == nil)
	}
	if len(s.CI["SNUG"]) != len(s.Classes) {
		t.Fatalf("CI rows %d, want one per core count (%d)", len(s.CI["SNUG"]), len(s.Classes))
	}
	for i, half := range s.CI["SNUG"] {
		if half < 0 {
			t.Errorf("negative half-width %v at %s cores", half, s.Classes[i])
		}
	}
	if !reflect.DeepEqual(s, run(4)) {
		t.Error("replicated scaling series differs between Parallelism 1 and 4")
	}
}

// TestCheckpointFingerprints pins the store headers Evaluate and
// ScalingStudy write at the test scale, so a change to their driver cannot
// silently orphan existing stores. The scaling header hashes the quad-core
// base whatever the core counts.
func TestCheckpointFingerprints(t *testing.T) {
	opt := experiments.Options{
		Cfg: config.TestScale(), RunCycles: 20_000,
		Classes: []string{"C1"}, Schemes: []string{"L2P"},
	}
	header := func(path string) string {
		t.Helper()
		s, err := sweep.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.Fingerprint()
	}

	opt.Checkpoint = filepath.Join(t.TempDir(), "evaluate.sweep.json")
	if _, err := experiments.Evaluate(context.Background(), opt); err != nil {
		t.Fatal(err)
	}
	if got, want := header(opt.Checkpoint), "evaluate/v1/cycles=20000/cfg=ebba1b660fbe28ea"; got != want {
		t.Errorf("Evaluate store header %q, want %q", got, want)
	}

	opt.Checkpoint = filepath.Join(t.TempDir(), "scaling.sweep.json")
	if _, err := experiments.ScalingStudy(context.Background(), opt, []int{4, 8}); err != nil {
		t.Fatal(err)
	}
	if got, want := header(opt.Checkpoint), "scaling/v1/cycles=20000/cfg=ebba1b660fbe28ea"; got != want {
		t.Errorf("ScalingStudy store header %q, want %q", got, want)
	}
}
