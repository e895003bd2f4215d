package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteAndCheckBaseline writes a one-benchmark baseline and then
// checks the machine against it: a freshly measured machine must be within
// tolerance of itself. SimulatorSpeed (the gated benchmark) would take
// seconds, so the round trip uses the same code path end to end but is
// validated again at full scale by CI's regression gate.
func TestWriteAndCheckBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "base.json")
	var out bytes.Buffer
	if err := run([]string{"-out", path, "-bench", "SimulatorSpeed"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatalf("baseline is not valid JSON: %v", err)
	}
	res, ok := base.Benchmarks["SimulatorSpeed"]
	if !ok {
		t.Fatalf("baseline missing SimulatorSpeed: %s", raw)
	}
	if res.NsPerOp <= 0 || res.Metrics["sim-cycles/s"] <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}

	out.Reset()
	if err := run([]string{"-check", path, "-tolerance", "0.5"}, &out, io.Discard); err != nil {
		t.Fatalf("self-check failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "benchmark check passed") {
		t.Errorf("check output missing pass line:\n%s", out.String())
	}
}

// TestCheckDetectsRegression feeds -check a baseline faster than any real
// machine and expects failure.
func TestCheckDetectsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "fast.json")
	base := Baseline{Benchmarks: map[string]Result{
		"SimulatorSpeed": {Iterations: 1, NsPerOp: 1, Metrics: map[string]float64{"sim-cycles/s": 1e15}},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-check", path}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("check passed against an impossibly fast baseline")
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("error %q does not name the regression", err)
	}
}

// TestCheckGatesOpsMetric: the microbenchmarks report ops/s rather than
// sim-cycles/s and must be gated through the same comparison.
func TestCheckGatesOpsMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "ops.json")
	base := Baseline{Benchmarks: map[string]Result{
		"CacheOps": {Iterations: 1, NsPerOp: 1, Metrics: map[string]float64{"ops/s": 1e18}},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-check", path, "-bench", "CacheOps"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("check passed against an impossibly fast ops/s baseline")
	}
	if !strings.Contains(err.Error(), "ops/s") {
		t.Errorf("error %q does not name the ops/s metric", err)
	}
}

// TestCheckRefusesEmptyComparison guards the gate against becoming a
// silent no-op: a baseline that names none of the measured benchmarks
// (schema or name drift) must fail the check, not pass it.
func TestCheckRefusesEmptyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark; skipped in -short")
	}
	path := filepath.Join(t.TempDir(), "drifted.json")
	base := Baseline{Benchmarks: map[string]Result{
		"RenamedBenchmark": {Iterations: 1, NsPerOp: 1, Metrics: map[string]float64{"sim-cycles/s": 1}},
	}}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-check", path}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("check passed while comparing nothing")
	}
	if !strings.Contains(err.Error(), "checked nothing") {
		t.Errorf("error %q does not explain the empty comparison", err)
	}
}

// TestCommittedBaselinesDecode decodes every committed BENCH_PR*.json the
// way -check does, so a schema change that breaks an old baseline fails
// here rather than in CI's regression gate at run time. For the current
// gate it also pins the benchmarks and metrics the gate compares.
func TestCommittedBaselinesDecode(t *testing.T) {
	// gated lists, per baseline, the rate metric -check must find for each
	// benchmark of CI's regression-gate -bench list.
	cases := []struct {
		file  string
		gated map[string]string
	}{
		{file: "BENCH_PR4.json"},
		{file: "BENCH_PR5.json"},
		{file: "BENCH_PR7.json"},
		{file: "BENCH_PR9.json", gated: map[string]string{
			"SimulatorSpeed": simCyclesMetric,
			"SNUG16Core":     simCyclesMetric,
			"CacheOps":       opsMetric,
			"BusContention":  opsMetric,
		}},
	}
	onDisk, err := filepath.Glob(filepath.Join("..", "..", "BENCH_PR*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(cases) {
		t.Errorf("found %d committed baselines %v, the table covers %d; add the new file to the table", len(onDisk), onDisk, len(cases))
	}
	for _, tc := range cases {
		b, err := readBaseline(filepath.Join("..", "..", tc.file))
		if err != nil {
			t.Errorf("%s: %v", tc.file, err)
			continue
		}
		if len(b.Benchmarks) == 0 || b.GoVersion == "" || b.GOMAXPROCS < 1 {
			t.Errorf("%s: decoded an empty or headerless baseline: %+v", tc.file, b)
		}
		for name, metric := range tc.gated {
			if v := b.Benchmarks[name].Metrics[metric]; v <= 0 {
				t.Errorf("%s: %s has no positive %s (got %v)", tc.file, name, metric, v)
			}
		}
	}
}

// TestCheckBaselineGatesAllocs: registry-marked benchmarks gate allocs/op
// against the baseline — a regression beyond tolerance fails even when the
// rate metrics are fine, and improvement passes.
func TestCheckBaselineGatesAllocs(t *testing.T) {
	base := map[string]Result{
		"Figure9Throughput": {AllocsPerOp: 1000, Metrics: map[string]float64{"sim-cycles/s": 100}},
	}
	measure := func(allocs int64) map[string]Result {
		return map[string]Result{
			"Figure9Throughput": {AllocsPerOp: allocs, Metrics: map[string]float64{"sim-cycles/s": 100}},
		}
	}
	if err := checkBaseline(io.Discard, "base.json", base, measure(500), 0.30); err != nil {
		t.Errorf("improved allocs failed the gate: %v", err)
	}
	err := checkBaseline(io.Discard, "base.json", base, measure(2000), 0.30)
	if err == nil || !strings.Contains(err.Error(), "allocation regression") {
		t.Errorf("doubled allocs: err = %v, want an allocation regression", err)
	}
	// An unmarked benchmark's allocs are not gated, however bad.
	unmarked := map[string]Result{
		"SimulatorSpeed": {AllocsPerOp: 1000, Metrics: map[string]float64{"sim-cycles/s": 100}},
	}
	bloated := map[string]Result{
		"SimulatorSpeed": {AllocsPerOp: 1 << 40, Metrics: map[string]float64{"sim-cycles/s": 100}},
	}
	if err := checkBaseline(io.Discard, "base.json", unmarked, bloated, 0.30); err != nil {
		t.Errorf("unmarked benchmark's allocs were gated: %v", err)
	}
}

// TestRunFlagErrors covers CLI error paths without running benchmarks.
func TestRunFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"bad flag":          {"-nope"},
		"positional args":   {"-out", "x.json", "extra"},
		"neither mode":      {},
		"both modes":        {"-out", "a.json", "-check", "b.json"},
		"unknown benchmark": {"-out", os.DevNull, "-bench", "NoSuchBench"},
		"missing baseline":  {"-check", "definitely-missing.json", "-bench", "SimulatorSpeedDoesNotRun"},
	}
	for name, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}
}
