package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"snug/internal/cli"
	"snug/internal/config"
	"snug/internal/sweep"
)

// TestRunSingleScheme drives one tiny simulation end to end.
func TestRunSingleScheme(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-scheme", "L2P", "-workload", "4xgzip", "-cycles", "50000"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"scheme=L2P", "core 0 gzip", "dram:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunComparisonWithSpecs compares schemes given as full specs,
// including a parameterized CC, on an 8-core scale-out workload.
func TestRunComparisonWithSpecs(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-scheme", "L2P,CC(75%)", "-workload", "8xgzip", "-cycles", "50000"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cores=8", "L2P", "CC(75%)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunProfileFlags: -cpuprofile/-memprofile write non-empty pprof files
// around a run, and an uncreatable profile path is a flag-time error.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.out", dir+"/mem.out"
	err := run(context.Background(), []string{"-scheme", "L2P", "-workload", "4xgzip", "-cycles", "50000",
		"-cpuprofile", cpu, "-memprofile", mem}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run(context.Background(), []string{"-cycles", "1000", "-cpuprofile", dir + "/no/such/dir/cpu.out"},
		io.Discard, io.Discard); err == nil {
		t.Error("uncreatable -cpuprofile path accepted")
	}
}

// TestRunList prints the registry-backed scheme list.
func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"benchmarks:", "CC DSR L2P L2S SNUG", "4xammp"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestHelpIsNotAnError: -h surfaces flag.ErrHelp, which main maps to a
// successful exit (usage is not a failure).
func TestHelpIsNotAnError(t *testing.T) {
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

func TestSplitSpecs(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"SNUG", []string{"SNUG"}},
		{"L2P, CC(75%) ,SNUG", []string{"L2P", "CC(75%)", "SNUG"}},
		{"X(a,b),SNUG", []string{"X(a,b)", "SNUG"}}, // commas inside args survive
	}
	for _, c := range cases {
		if got := splitSpecs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("splitSpecs(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestResolveWorkload(t *testing.T) {
	base := config.Default()
	got, err := resolveWorkload("8xammp", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 || got[0] != "ammp" || got[7] != "ammp" {
		t.Fatalf("8xammp resolved to %v", got)
	}
	got, err = resolveWorkload("ammp+parser+bzip2+mcf", base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"ammp", "parser", "bzip2", "mcf"}) {
		t.Fatalf("combo name resolved to %v", got)
	}
	// "vortex" contains an 'x' but is a plain benchmark name.
	got, err = resolveWorkload("vortex,vortex,vortex,vortex", base)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[0] != "vortex" {
		t.Fatalf("vortex list resolved to %v", got)
	}
	// Widths the base cannot be widened to are refused before any
	// allocation: the last one used to exhaust memory.
	for _, bad := range []string{"nope", "0xammp", "4xnope", "2xammp", "1000000000000xammp"} {
		if _, err := resolveWorkload(bad, base); err == nil {
			t.Errorf("resolveWorkload(%q) accepted", bad)
		}
	}
}

// TestRunFlagErrors covers CLI error paths, including non-scalable widths.
func TestRunFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"bad flag":        {"-nope"},
		"positional args": {"extra"},
		"bad scheme":      {"-scheme", "victim-cache", "-cycles", "1000"},
		"bad benchmark":   {"-workload", "nope", "-cycles", "1000"},
		"bad width":       {"-workload", "gzip,gzip", "-cycles", "1000"},
		"huge reps":       {"-scheme", "L2P", "-workload", "4xgzip", "-cycles", "1000", "-reps", "100000000000"},
		"-testscale":      {"-testscale=false", "-cycles", "1000"}, // the system choice is spelled -fullscale
	}
	for name, args := range cases {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}

	// A run length that is not positive is refused before anything runs,
	// for one scheme and for a comparison written to a store.
	for _, args := range [][]string{
		{"-scheme", "SNUG", "-workload", "ammp,parser,swim,mesa", "-cycles", "0"},
		{"-scheme", "L2P,SNUG", "-workload", "4xgzip", "-cycles", "-5", "-out", filepath.Join(t.TempDir(), "x.jsonl")},
	} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-cycles") {
			t.Errorf("run(%v) = %v, want the -cycles refusal", args, err)
		}
	}

	// A fresh -out onto a non-empty store is refused, bytes untouched.
	store := filepath.Join(t.TempDir(), "prior.jsonl")
	if err := os.WriteFile(store, []byte("prior results\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-scheme", "L2P", "-workload", "4xgzip", "-cycles", "1000", "-out", store}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("-out onto a non-empty store: err = %v, want the overwrite refusal", err)
	}
	if got, _ := os.ReadFile(store); string(got) != "prior results\n" {
		t.Errorf("refused store changed to %q", got)
	}

	// Bad scheme or configuration input is refused before any job runs or
	// any store is written, even under -failpolicy continue, which would
	// otherwise run the sweep and report each job's failure.
	for name, args := range map[string][]string{
		"unknown scheme in a list": {"-scheme", "L2P,victim"},
		"empty spec":               {"-scheme", "L2P,"},
		"scheme named twice":       {"-scheme", "CC(75),CC(75%)"},
		"bad spill percent":        {"-scheme", "L2P", "-ccpct", "33"},
	} {
		out := filepath.Join(t.TempDir(), "s.jsonl")
		args = append(args, "-failpolicy", "continue", "-workload", "4xgzip", "-cycles", "50000", "-out", out)
		if err := run(context.Background(), args, io.Discard, io.Discard); cli.ExitCode(err) != 1 {
			t.Errorf("%s: exit code %d (%v), want 1", name, cli.ExitCode(err), err)
		}
		if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: store created (stat: %v)", name, err)
		}
	}
}

// TestResumeAcrossSpellings: jobs are keyed by the canonical spec, so a
// store written with "CC(75)" serves a resume spelled "CC(75%)" without
// running the scheme again, and both runs print the same bytes.
func TestResumeAcrossSpellings(t *testing.T) {
	out := filepath.Join(t.TempDir(), "s.jsonl")
	args := []string{"-workload", "4xgzip", "-cycles", "50000", "-par", "1", "-out", out}
	var first, second bytes.Buffer
	if err := run(context.Background(), append([]string{"-scheme", "L2P,CC(75)"}, args...), &first, io.Discard); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append([]string{"-scheme", "L2P,CC(75%)", "-resume"}, args...), &second, io.Discard); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(written, []byte("\n")); n != 3 || !bytes.Equal(resumed, written) {
		t.Errorf("store went from %d to %d lines, want 3 (header and two runs) both times",
			n, bytes.Count(resumed, []byte("\n")))
	}
	if first.String() != second.String() || !strings.Contains(first.String(), "CC(75%)") {
		t.Errorf("resumed output differs or lacks the canonical label:\n%s\n---\n%s", first.String(), second.String())
	}
}

// TestStoreHeader pins the header snugsim writes into a -out store, as
// internal/experiments' TestCheckpointFingerprints pins Evaluate's and
// ScalingStudy's, so a change to the fingerprint cannot silently orphan
// existing stores. With -fullscale the header names the system both sweep
// commands take for it, the Table 4 system with SNUG's stages cut 50x.
func TestStoreHeader(t *testing.T) {
	full, err := sweep.Fingerprint("snugsim", 50000, "gzip+gzip+gzip+gzip", config.Scaled(50))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flags []string
		want  string
	}{
		{nil, "snugsim/v1/cycles=50000/workload=gzip+gzip+gzip+gzip/cfg=ebba1b660fbe28ea"},
		{[]string{"-fullscale"}, full},
	} {
		out := filepath.Join(t.TempDir(), "h.jsonl")
		args := append([]string{"-scheme", "L2P", "-workload", "4xgzip", "-cycles", "50000", "-out", out}, c.flags...)
		if err := run(context.Background(), args, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		s, err := sweep.OpenStore(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Fingerprint(); got != c.want {
			t.Errorf("%v: store header %q, want %q", c.flags, got, c.want)
		}
		s.Close()
	}
}

// TestRunReplicates: -reps N summarizes each scheme as mean ±95% CI over
// independently-seeded replicates; -reps 0 is rejected.
func TestRunReplicates(t *testing.T) {
	var out bytes.Buffer
	err := run(context.Background(), []string{"-scheme", "L2P,SNUG", "-workload", "4xgzip", "-cycles", "50000", "-reps", "3"}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reps=3", "mean ±95% CI", "L2P", "SNUG", "±", "avgSpills=", "Δ SNUG vs L2P:", "(paired)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if err := run(context.Background(), []string{"-reps", "0"}, io.Discard, io.Discard); err == nil {
		t.Error("-reps 0 accepted")
	}
}

// TestRunJobFailures: under -failpolicy continue a sweep whose every run
// fails still finishes and exits with the job-failure code.
func TestRunJobFailures(t *testing.T) {
	err := run(context.Background(), []string{"-scheme", "L2P,SNUG", "-workload", "4xgzip", "-cycles", "1000",
		"-failpolicy", "continue", "-inject", "err:1"}, io.Discard, io.Discard)
	if got := cli.ExitCode(err); got != cli.ExitJobFailures {
		t.Errorf("exit code %d (%v), want %d", got, err, cli.ExitJobFailures)
	}
}
