package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"snug/internal/cli"
	"snug/internal/cmp"
	"snug/internal/config"
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

// TestAblationSharesOneCell checks that the stream cache serves every
// ablation variant from the cell the L2P baseline's run records: the
// variants change only SNUG's parameters, below the cores' front ends, so
// none is refused for another cell, and each gives RunWorkload's result.
func TestAblationSharesOneCell(t *testing.T) {
	const cycles = 20_000
	base := config.TestScale()
	bench := []string{"ammp", "parser", "swim", "mesa"}
	sc, uses := cmp.NewStreamCache(), 1+len(ablationVariants)
	if _, err := sc.Run(base, "L2P", bench, cycles, uses); err != nil {
		t.Fatal(err)
	}
	for _, v := range ablationVariants {
		cfg := base
		v.mut(&cfg)
		got, err := sc.Run(cfg, "SNUG", bench, cycles, uses)
		if err != nil {
			t.Errorf("%s: %v", v.name, err)
			continue
		}
		want, err := cmp.RunWorkload(cfg, "SNUG", bench, cycles)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: run over the shared tapes differs from RunWorkload", v.name)
		}
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
		"one bad class":      {"-classes", "C1,C9", "-cycles", "1000"},
		"bad scheme":         {"-schemes", "NOPE", "-cycles", "1000"},
		"huge reps":          {"-reps", "100000000000", "-cycles", "1000"},
	}
	// The ablation refuses every flag it does not read.
	for _, f := range [][]string{
		{"-classes", "C1"}, {"-schemes", "SNUG"}, {"-scaling"}, {"-csv", t.TempDir()},
		{"-out", filepath.Join(t.TempDir(), "abl.json")}, {"-resume"}, {"-salvage"},
		{"-sync", "1"}, {"-failpolicy", "continue"}, {"-retries", "1"},
		{"-backoff", "1ms"}, {"-inject", "panic:0.5"},
	} {
		cases["ablation with "+f[0]] = append([]string{"-ablation", "-cycles", "1000"}, f...)
	}
	for name, args := range cases {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}

	// A run length that is not positive is refused before anything runs,
	// by the ablation too, which does not go through Evaluate.
	for _, args := range [][]string{{"-ablation", "-cycles", "0"}, {"-classes", "C1", "-cycles", "-5"}} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-cycles") {
			t.Errorf("run(%v) = %v, want the -cycles refusal", args, err)
		}
	}

	// A fresh -out onto a non-empty store is refused, bytes untouched.
	store := filepath.Join(t.TempDir(), "prior.sweep.json")
	if err := os.WriteFile(store, []byte("prior results\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-classes", "C1", "-cycles", "1000", "-out", store}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("-out onto a non-empty store: err = %v, want the overwrite refusal", err)
	}
	if got, _ := os.ReadFile(store); string(got) != "prior results\n" {
		t.Errorf("refused store changed to %q", got)
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

// TestRunJobFailures: under -failpolicy continue a sweep whose every run
// fails still finishes and exits with the job-failure code, for the
// figures and the scaling study alike.
func TestRunJobFailures(t *testing.T) {
	for _, extra := range [][]string{nil, {"-scaling", "-cores", "4,8"}} {
		args := append([]string{"-classes", "C1", "-schemes", "SNUG", "-cycles", "1000", "-quiet",
			"-failpolicy", "continue", "-inject", "err:1"}, extra...)
		err := run(context.Background(), args, io.Discard, io.Discard)
		if got := cli.ExitCode(err); got != cli.ExitJobFailures {
			t.Errorf("run(%v): exit code %d (%v), want %d", args, got, err, cli.ExitJobFailures)
		}
	}
}
