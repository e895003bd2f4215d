package main

import (
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFiguresSmoke drives the full flag-to-table path on a tiny subset.
func TestRunFiguresSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-classes", "C1", "-schemes", "SNUG", "-cycles", "120000", "-quiet",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 9", "Figure 10", "Figure 11", "SNUG", "4xammp"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunScalingSmoke: -scaling -cores 4,8 produces a per-scheme table with
// one row per core count, plus CSV output.
func TestRunScalingSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-scaling", "-cores", "4,8", "-classes", "C1", "-schemes", "SNUG",
		"-cycles", "60000", "-quiet", "-csv", dir,
		"-out", filepath.Join(dir, "scaling.sweep.json"),
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Scaling — throughput", "cores", "SNUG", "scaling_throughput.csv"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// One row per core count.
	for _, row := range []string{"\n4 ", "\n8 "} {
		if !strings.Contains(text, row) {
			t.Errorf("scaling table missing row %q:\n%s", strings.TrimSpace(row), text)
		}
	}
}

// TestRunAblationCores: -ablation honors -cores (the widened system, not a
// silently ignored flag), and its variant lines print only counters the
// run reports (no case-2 spill count reaches a RunResult, so no column
// may claim one).
func TestRunAblationCores(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-ablation", "-cores", "8", "-cycles", "40000"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ammp ammp parser parser") {
		t.Errorf("ablation did not widen the workload:\n%s", out.String())
	}
	if text := out.String(); !strings.Contains(text, "spills=") || strings.Contains(text, "case2=") {
		t.Errorf("variant lines must report spills and no case-2 count:\n%s", text)
	}
	if err := run(context.Background(), []string{"-ablation", "-cores", "4,8"}, io.Discard, io.Discard); err == nil {
		t.Error("ablation accepted a core-count list")
	}
}

// TestRunFlagErrors covers option validation through the CLI surface.
func TestRunFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"bad flag":           {"-nope"},
		"positional args":    {"extra"},
		"resume without out": {"-resume"},
		"bad cores":          {"-cores", "five"},
		"figures core list":  {"-cores", "4,8"},
		"invalid width":      {"-cores", "6", "-cycles", "1000"},
		"bad class":          {"-classes", "C9", "-cycles", "1000"},
		"bad scheme":         {"-schemes", "NOPE", "-cycles", "1000"},
	}
	for name, args := range cases {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}
}

// TestRunFiguresReps: -reps N produces interval-qualified tables; -reps 0
// is rejected.
func TestRunFiguresReps(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-classes", "C1", "-schemes", "SNUG", "-cycles", "60000", "-reps", "2", "-quiet",
	}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"±95% CI over 2 replicates", "±"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if err := run(context.Background(), []string{"-reps", "0"}, io.Discard, io.Discard); err == nil {
		t.Error("-reps 0 accepted")
	}
	if err := run(context.Background(), []string{"-ablation", "-reps", "2"}, io.Discard, io.Discard); err == nil {
		t.Error("-ablation silently accepted -reps (no replication support there)")
	}
}
