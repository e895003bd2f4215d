package experiments_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"snug/internal/config"
	"snug/internal/core"
	"snug/internal/experiments"
	"snug/internal/metrics"
	"snug/internal/sweep"
	"snug/internal/workloads"
)

// Fixture run lengths. At test scale a SNUG epoch is 1M cycles (100k stage
// I + 900k stage II), and the stage-I re-latch at 1M drops cooperative
// state, so C1's Figure 9 ordering — SNUG clearly ahead — only re-emerges
// well into the second epoch: 1.6M cycles is the shortest length with a
// solid margin. C2's plateau (~1.0 for every cooperative scheme) is stable
// far earlier; 1.2M keeps the suite's wall time within budget.
const (
	fixtureC1Cycles = 1_600_000
	fixtureC2Cycles = 1_200_000
)

// The C1 and C2 evaluations are the expensive inputs shared by
// TestFigure9Shape and TestIndexFlipAblation; simulate them once instead of
// per test.
var (
	evalOnce     sync.Once
	fixC1, fixC2 *experiments.Evaluation
	evalErr      error
)

func evalFixture(t *testing.T) (c1, c2 *experiments.Evaluation) {
	t.Helper()
	evalOnce.Do(func() {
		fixC1, evalErr = experiments.Evaluate(context.Background(), experiments.Options{
			Cfg: config.TestScale(), RunCycles: fixtureC1Cycles, Classes: []string{"C1"},
		})
		if evalErr != nil {
			return
		}
		fixC2, evalErr = experiments.Evaluate(context.Background(), experiments.Options{
			Cfg: config.TestScale(), RunCycles: fixtureC2Cycles, Classes: []string{"C2"},
		})
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return fixC1, fixC2
}

// TestTable2 pins the Formula (6) storage overhead to the paper's 3.9%.
func TestTable2(t *testing.T) {
	o, err := core.ComputeOverhead(core.DefaultOverheadParams())
	if err != nil {
		t.Fatal(err)
	}
	if o.TagBits != 16 {
		t.Errorf("tag field %d bits, want 16 (Table 2)", o.TagBits)
	}
	if o.LRUBits != 4 {
		t.Errorf("LRU field %d bits, want 4", o.LRUBits)
	}
	if o.Sets != 1024 {
		t.Errorf("sets %d, want 1024", o.Sets)
	}
	if math.Abs(o.Percent()-3.9) > 0.05 {
		t.Errorf("overhead %.2f%%, paper reports 3.9%%", o.Percent())
	}
}

// TestTable3 pins the address-width / line-size grid. The paper rounds
// 2.01% up to 2.1%; we accept either rounding of the same arithmetic.
func TestTable3(t *testing.T) {
	cells, err := core.Table3()
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]float64{
		{32, 64}:  3.9,
		{64, 64}:  5.8,
		{32, 128}: 2.1,
		{64, 128}: 3.1,
	}
	for _, c := range cells {
		w := want[[2]int{c.AddressBits, c.BlockBytes}]
		if math.Abs(c.Percent-w) > 0.15 {
			t.Errorf("%d-bit / %dB: %.2f%%, paper reports %.1f%%",
				c.AddressBits, c.BlockBytes, c.Percent, w)
		}
	}
}

// TestFigure1AmmpShape: ~40% of ammp's sets demand 1-4 blocks while a
// large fraction demands beyond 2x the baseline associativity.
func TestFigure1AmmpShape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization run")
	}
	chz, err := experiments.Characterize(experiments.CharacterizeOptions{
		Benchmark: "ammp", Cfg: config.TestScale(),
		Intervals: 60, AccessesPerInterval: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := chz.MeanBucketSizes()
	if mean[0] < 0.28 || mean[0] > 0.55 {
		t.Errorf("ammp bucket 1~4 share %.2f, want ~0.40 (Figure 1)", mean[0])
	}
	if deep := mean[7]; deep < 0.30 {
		t.Errorf("ammp bucket >=29 share %.2f, want the deep-taker mass", deep)
	}
}

// TestFigure2VortexPhases: vortex's shallow-set share grows during its
// middle phase (sampling intervals ~40.4%-79.2% of the run) relative to
// the opening phase — the Figure 2 signature.
func TestFigure2VortexPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization run")
	}
	const intervals = 100
	chz, err := experiments.Characterize(experiments.CharacterizeOptions{
		Benchmark: "vortex", Cfg: config.TestScale(),
		Intervals: intervals, AccessesPerInterval: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The share of buckets 1~4 and 5~8 over intervals [from, to).
	shallow := func(from, to int) float64 {
		return chz.BucketOver[0].WindowMean(from, to) + chz.BucketOver[1].WindowMean(from, to)
	}
	shallowOpen := shallow(5, 40) // phase 1 (skip warm-up)
	shallowMid := shallow(45, 78) // the Figure 2 phase
	if shallowMid <= shallowOpen+0.03 {
		t.Errorf("vortex shallow share: opening %.3f -> middle %.3f; want a clear rise (Figure 2)",
			shallowOpen, shallowMid)
	}
}

// TestCharacterizeValidation: a run without intervals or without accesses
// per interval is refused; there is no default length.
func TestCharacterizeValidation(t *testing.T) {
	for _, opt := range []experiments.CharacterizeOptions{
		{Benchmark: "ammp", Cfg: config.TestScale(), AccessesPerInterval: 10_000},
		{Benchmark: "ammp", Cfg: config.TestScale(), Intervals: 10},
		{Benchmark: "ammp", Cfg: config.TestScale(), Intervals: -1, AccessesPerInterval: 10_000},
	} {
		if _, err := experiments.Characterize(opt); err == nil {
			t.Errorf("Characterize with %d intervals of %d accesses succeeded", opt.Intervals, opt.AccessesPerInterval)
		}
	}
}

// TestFigure3AppluShape: the streaming benchmark keeps essentially all
// sets in the 1-4 bucket.
func TestFigure3AppluShape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization run")
	}
	chz, err := experiments.Characterize(experiments.CharacterizeOptions{
		Benchmark: "applu", Cfg: config.TestScale(),
		Intervals: 40, AccessesPerInterval: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mean := chz.MeanBucketSizes()[0]; mean < 0.9 {
		t.Errorf("applu bucket 1~4 share %.2f, want ~1.0 (Figure 3)", mean)
	}
}

// TestFigure9Shape runs the evaluation on the two extreme classes and
// asserts the paper's qualitative orderings: in C1 (identical non-uniform
// applications) SNUG beats every baseline, with CC(Best) and DSR also at
// or above 1; in C2 (identical uniform applications) every cooperative
// scheme stays within noise of the baseline and the shared organization
// pays its NUCA tax.
func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation run")
	}
	evC1, evC2 := evalFixture(t)
	row := func(ev *experiments.Evaluation, class string) map[string]float64 {
		fig, err := ev.Figure(metrics.MetricThroughput)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range fig.Classes {
			if c == class {
				out := map[string]float64{}
				for _, s := range experiments.FigureSchemes {
					out[s] = fig.Values[s][i]
				}
				return out
			}
		}
		t.Fatalf("class %s missing", class)
		return nil
	}

	c1 := row(evC1, "C1")
	if c1["SNUG"] <= c1["CC(Best)"] || c1["SNUG"] <= c1["DSR"] || c1["SNUG"] <= c1["L2S"] {
		t.Errorf("C1 ordering violated: %v (SNUG must lead — the set-level grouping class)", c1)
	}
	if c1["SNUG"] <= 1.01 {
		t.Errorf("C1 SNUG %.3f, want a clear gain over L2P", c1["SNUG"])
	}

	c2 := row(evC2, "C2")
	for _, s := range []string{"CC(Best)", "DSR", "SNUG"} {
		if c2[s] < 0.96 || c2[s] > 1.04 {
			t.Errorf("C2 %s = %.3f, want ~1.0 (no slack to exploit)", s, c2[s])
		}
	}
	if c2["L2S"] >= 1.0 {
		t.Errorf("C2 L2S = %.3f, want < 1 (NUCA tax without capacity relief)", c2["L2S"])
	}
}

// TestIndexFlipAblation: disabling the index-bit-flipping scheme must not
// improve SNUG on the C1 stress test, where flipping is the mechanism that
// finds complementary sets (paper §5). The with-flip side comes from the
// shared fixture; the without-flip side simulates only the runs the
// comparison needs (L2P baseline + SNUG) via the Schemes subset.
func TestIndexFlipAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation run")
	}
	evC1, _ := evalFixture(t)
	withFig, err := evC1.Figure(metrics.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	with := withFig.Values["SNUG"][0]

	cfg := config.TestScale()
	cfg.SNUG.IndexFlip = false
	ev, err := experiments.Evaluate(context.Background(), experiments.Options{
		Cfg: cfg, RunCycles: fixtureC1Cycles, Classes: []string{"C1"},
		Schemes: []string{"SNUG"},
	})
	if err != nil {
		t.Fatal(err)
	}
	withoutFig, err := ev.Figure(metrics.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	without := withoutFig.Values["SNUG"][0]
	t.Logf("C1 SNUG with flip %.4f, without %.4f", with, without)
	if without > with+0.005 {
		t.Errorf("disabling index flipping improved C1 (%.4f -> %.4f)", with, without)
	}
}

// TestEvaluateDeterminism: the sweep engine seeds every run from its combo
// identity, so the evaluation's output is bit-identical for any worker
// count (the old fixed pool made this true by accident; now it is the
// engine's contract).
func TestEvaluateDeterminism(t *testing.T) {
	run := func(par int) []experiments.ComboResult {
		ev, err := experiments.Evaluate(context.Background(), experiments.Options{
			Cfg: config.TestScale(), RunCycles: 120_000, Parallelism: par,
			Classes: []string{"C1"}, Schemes: []string{"CC"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ev.Combos
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Error("Evaluate output differs between Parallelism 1 and 4")
	}
}

// TestEvaluateResume: re-running an evaluation over its checkpoint store
// restores every run (no re-simulation) and reproduces the results exactly
// — which also pins that cmp.RunResult survives the JSON round trip.
func TestEvaluateResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "eval.sweep.json")
	opts := experiments.Options{
		Cfg: config.TestScale(), RunCycles: 120_000,
		Classes: []string{"C1"}, Schemes: []string{"SNUG"}, Checkpoint: ckpt,
	}
	first, err := experiments.Evaluate(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var last sweep.Progress
	opts.Progress = func(p sweep.Progress) { last = p }
	second, err := experiments.Evaluate(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if last.Restored != last.Total || last.Total == 0 {
		t.Errorf("resume restored %d of %d runs, want all", last.Restored, last.Total)
	}
	if !reflect.DeepEqual(first.Combos, second.Combos) {
		t.Error("resumed evaluation differs from the original")
	}

	// Same store under different options must be rejected, not mixed.
	opts.RunCycles = 240_000
	if _, err := experiments.Evaluate(context.Background(), opts); err == nil {
		t.Error("checkpoint from a different RunCycles accepted")
	}
}

// TestEvaluateCheckpointKeys pins the checkpoint-store key format: keys are
// "combo/spec" strings ("4xammp/CC(75%)"), stable across releases so that
// existing sweep stores keep resuming.
func TestEvaluateCheckpointKeys(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "keys.sweep.json")
	_, err := experiments.Evaluate(context.Background(), experiments.Options{
		Cfg: config.TestScale(), RunCycles: 60_000,
		Classes: []string{"C1"}, Schemes: []string{"CC"}, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"4xammp/L2P"`, `"4xammp/CC(0%)"`, `"4xammp/CC(25%)"`,
		`"4xammp/CC(50%)"`, `"4xammp/CC(75%)"`, `"4xammp/CC(100%)"`,
		`"4xparser/CC(75%)"`, `"4xvortex/L2P"`,
	} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("checkpoint store missing stable key %s", key)
		}
	}
}

// TestFigureRaggedData: a scheme present in only some combos must fail the
// figure computation instead of silently dropping the series (or skewing
// it) based on the first combo alone.
func TestFigureRaggedData(t *testing.T) {
	full := experiments.ComboResult{
		Combo:          workloads.Table8()[0],
		RepComparisons: []map[string]metrics.Comparison{{"SNUG": {Scheme: "SNUG", ThroughputNorm: 1.1}}},
	}
	empty := experiments.ComboResult{
		Combo:          workloads.Table8()[1],
		RepComparisons: []map[string]metrics.Comparison{{}},
	}

	ev := &experiments.Evaluation{Combos: []experiments.ComboResult{full, empty}}
	if _, err := ev.Figure(metrics.MetricThroughput); err == nil {
		t.Error("ragged data (scheme in first combo only) accepted")
	}
	// The order must not matter: a scheme missing from the FIRST combo but
	// present later is equally ragged, not an absent series.
	ev = &experiments.Evaluation{Combos: []experiments.ComboResult{empty, full}}
	if _, err := ev.Figure(metrics.MetricThroughput); err == nil {
		t.Error("ragged data (scheme missing from first combo) accepted")
	}
}

// TestEvaluateBaselineOnly: Schemes = ["L2P"] runs just the baseline (the
// option's documentation says L2P always runs, so naming only it is valid).
func TestEvaluateBaselineOnly(t *testing.T) {
	ev, err := experiments.Evaluate(context.Background(), experiments.Options{
		Cfg: config.TestScale(), RunCycles: 120_000,
		Classes: []string{"C1"}, Schemes: []string{"L2P"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range ev.Combos {
		if cr.Runs["L2P"].Cycles == 0 {
			t.Errorf("combo %s has no baseline run", cr.Combo.Name)
		}
		if len(cr.RepComparisons[0]) != 0 {
			t.Errorf("combo %s has comparisons %v without scheme runs", cr.Combo.Name, cr.RepComparisons[0])
		}
	}
	fig, err := ev.Figure(metrics.MetricThroughput)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Schemes) != 0 {
		t.Errorf("baseline-only figure lists schemes %v", fig.Schemes)
	}
}

// TestEvaluateValidation covers option errors.
func TestEvaluateValidation(t *testing.T) {
	if _, err := experiments.Evaluate(context.Background(), experiments.Options{Cfg: config.TestScale()}); err == nil {
		t.Error("zero RunCycles accepted")
	}
	for _, classes := range [][]string{{"C9"}, {"C1", "C9"}} {
		if _, err := experiments.Evaluate(context.Background(), experiments.Options{
			Cfg: config.TestScale(), RunCycles: 1000, Classes: classes,
		}); err == nil || !strings.Contains(err.Error(), `"C9"`) {
			t.Errorf("classes %v: err = %v, want the unknown-class refusal naming C9", classes, err)
		}
	}
	if _, err := experiments.Evaluate(context.Background(), experiments.Options{
		Cfg: config.TestScale(), RunCycles: 1000, Schemes: []string{"NOPE"},
	}); err == nil {
		t.Error("unknown scheme accepted")
	}
}
