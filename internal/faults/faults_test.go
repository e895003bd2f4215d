package faults

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"snug/internal/cmp"
	"snug/internal/sweep"
)

// parseSpecCases are accepted specs with their parsed values; badSpecs
// must all be refused. Both seed FuzzParseSpec.
var (
	parseSpecCases = []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"panic:0.02", Spec{Panic: 0.02}},
		{"panic:0.02,err:0.05,putfail:0.01", Spec{Panic: 0.02, Err: 0.05, PutFail: 0.01}},
		{" err:0.5 , putfail:1 ", Spec{Err: 0.5, PutFail: 1}},
	}
	badSpecs = []string{
		"panic", "panic:", "panic:x", "panic:-0.1", "panic:1.5",
		"panic:NaN", "err:nan", "panic:0.1,err:NaN",
		"exotic:0.5", "panic:0.1,panic:0.2",
	}
)

func TestParseSpec(t *testing.T) {
	for _, c := range parseSpecCases {
		got, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String renders back into the grammar ParseSpec accepts.
		back, err := ParseSpec(got.String())
		if err != nil || back != got {
			t.Errorf("round trip of %q via %q = %+v, %v", c.in, got.String(), back, err)
		}
	}
	for _, bad := range badSpecs {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want an error", bad)
		}
	}
}

// FuzzParseSpec: every spec ParseSpec accepts has all its probabilities in
// [0,1] and round-trips through String.
func FuzzParseSpec(f *testing.F) {
	for _, c := range parseSpecCases {
		f.Add(c.in)
	}
	for _, bad := range badSpecs {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		for _, p := range []float64{s.Panic, s.Err, s.PutFail} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) = %#v: probability %v outside [0,1]", text, s, p)
			}
		}
		back, err := ParseSpec(s.String())
		if err != nil || back != s {
			t.Fatalf("ParseSpec(%q) = %#v renders as %q, which parses to %#v, %v", text, s, s.String(), back, err)
		}
	})
}

// TestDrawsDeterministic: fault decisions are a pure function of (identity,
// attempt, salt) — two independently wrapped copies of the same jobs fault
// identically, attempt by attempt.
func TestDrawsDeterministic(t *testing.T) {
	spec := Spec{Panic: 0.2, Err: 0.3}
	outcomes := func() []string {
		job := sweep.Job{Key: "j", Run: func(seed uint64) (cmp.RunResult, error) {
			return cmp.RunResult{Cycles: int64(seed)}, nil
		}}
		wrapped := spec.Wrap(42, []sweep.Job{job})[0]
		var out []string
		for attempt := 0; attempt < 50; attempt++ {
			func() {
				defer func() {
					if v := recover(); v != nil {
						out = append(out, "panic")
					}
				}()
				if _, err := wrapped.Run(7); err != nil {
					out = append(out, "err")
				} else {
					out = append(out, "ok")
				}
			}()
		}
		return out
	}
	a, b := outcomes(), outcomes()
	if !reflect.DeepEqual(a, b) {
		t.Error("two wrappings of the same job drew different fault sequences")
	}
	counts := map[string]int{}
	for _, o := range a {
		counts[o]++
	}
	if counts["panic"] == 0 || counts["err"] == 0 || counts["ok"] == 0 {
		t.Errorf("50 draws at panic:0.2,err:0.3 produced %v — expected all three outcomes", counts)
	}
}

// TestSeedsDrawIndependently: replicates share one wrapped Run closure but
// run under different seeds, so each seed must see its own deterministic
// fault sequence, not a shared counter's.
func TestSeedsDrawIndependently(t *testing.T) {
	spec := Spec{Err: 0.5}
	job := sweep.Job{Key: "j", Run: func(seed uint64) (cmp.RunResult, error) {
		return cmp.RunResult{Cycles: int64(seed)}, nil
	}}
	seq := func(wrapped sweep.Job, seed uint64, n int) []bool {
		var out []bool
		for i := 0; i < n; i++ {
			_, err := wrapped.Run(seed)
			out = append(out, err != nil)
		}
		return out
	}
	w1 := spec.Wrap(1, []sweep.Job{job})[0]
	// Interleave two seeds through ONE closure, then replay each seed alone
	// through fresh closures: per-seed sequences must be unaffected by the
	// interleaving.
	var inter1, inter2 []bool
	w := spec.Wrap(1, []sweep.Job{job})[0]
	for i := 0; i < 20; i++ {
		_, e1 := w.Run(101)
		_, e2 := w.Run(202)
		inter1 = append(inter1, e1 != nil)
		inter2 = append(inter2, e2 != nil)
	}
	if got := seq(w1, 101, 20); !reflect.DeepEqual(got, inter1) {
		t.Error("seed 101's fault sequence changed when interleaved with another seed")
	}
	w2 := spec.Wrap(1, []sweep.Job{job})[0]
	if got := seq(w2, 202, 20); !reflect.DeepEqual(got, inter2) {
		t.Error("seed 202's fault sequence changed when interleaved with another seed")
	}
}

// TestInjectedSweepConvergesToCleanResults: a sweep under heavy fault
// injection with retries produces results and checkpoint bytes identical
// to an uninjected sweep — faults touch scheduling and error paths only,
// never what a job computes.
func TestInjectedSweepConvergesToCleanResults(t *testing.T) {
	dir := t.TempDir()
	cleanPath := filepath.Join(dir, "clean.jsonl")
	faultyPath := filepath.Join(dir, "faulty.jsonl")

	jobs := func() []sweep.Job {
		var out []sweep.Job
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("job-%02d", i)
			out = append(out, sweep.Job{Key: key, Run: func(seed uint64) (cmp.RunResult, error) {
				return cmp.RunResult{Scheme: key, Cycles: int64(seed >> 1)}, nil
			}})
		}
		return out
	}

	clean, err := sweep.Run(context.Background(), sweep.Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: cleanPath, Fingerprint: "faults-test/v1",
	}, jobs())
	if err != nil {
		t.Fatal(err)
	}

	spec := Spec{Panic: 0.2, Err: 0.2, PutFail: 0.2}
	faulty, err := sweep.Run(context.Background(), sweep.Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: faultyPath, Fingerprint: "faults-test/v1",
		Retry:   sweep.RetrySpec{Attempts: 40},
		PutHook: spec.PutHook(7),
	}, spec.Wrap(7, jobs()))
	if err != nil {
		t.Fatalf("injected sweep did not converge: %v", err)
	}
	if !reflect.DeepEqual(clean, faulty) {
		t.Error("fault injection changed sweep results")
	}
	a, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(faultyPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("fault injection changed checkpoint bytes")
	}
}

// TestPutHookInjects: the putfail class reaches checkpoint writes and its
// failures carry the job key.
func TestPutHookInjects(t *testing.T) {
	hook := Spec{PutFail: 1}.PutHook(1)
	err := hook("some-job")
	if err == nil || !strings.Contains(err.Error(), "some-job") {
		t.Errorf("putfail:1 hook returned %v, want an injected failure naming the job", err)
	}
	if (Spec{}).PutHook(1) != nil {
		t.Error("zero spec returned a non-nil put hook")
	}
}

// ---- chaos: SIGKILL a fault-injected sweep mid-run, resume, compare ----

// chaosSpec is the injection profile of the chaos differential. With 8
// retries, a job fails permanently with probability (0.1+0.1)^9 ≈ 5e-7 —
// and even that failure would be deterministic across runs.
var chaosSpec = Spec{Panic: 0.1, Err: 0.1, PutFail: 0.1}

// chaosSweep runs the chaos differential's sweep against the given store:
// 40 deterministic jobs with a small wall delay (so a SIGKILL lands
// mid-sweep), single worker (so checkpoint line order is deterministic),
// heavy fault injection, retries to converge through it.
func chaosSweep(store string, delay time.Duration) error {
	var jobs []sweep.Job
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("job-%02d", i)
		jobs = append(jobs, sweep.Job{Key: key, Run: func(seed uint64) (cmp.RunResult, error) {
			time.Sleep(delay)
			return cmp.RunResult{Scheme: key, Cycles: int64(seed >> 1)}, nil
		}})
	}
	_, err := sweep.Run(context.Background(), sweep.Options{
		Parallelism: 1, BaseSeed: 7, Checkpoint: store, Fingerprint: "chaos/v1",
		Retry:   sweep.RetrySpec{Attempts: 8},
		PutHook: chaosSpec.PutHook(7),
	}, chaosSpec.Wrap(7, jobs))
	return err
}

// TestChaosChild is the subprocess body of the chaos differential: it runs
// the chaos sweep against the store named by SNUG_CHAOS_STORE until the
// parent SIGKILLs it. It skips in a normal test run.
func TestChaosChild(t *testing.T) {
	store := os.Getenv("SNUG_CHAOS_STORE")
	if store == "" {
		t.Skip("chaos child: run by TestChaosKillResumeByteIdentical")
	}
	if err := chaosSweep(store, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

// TestChaosKillResumeByteIdentical is the acceptance differential for the
// failure model: a fault-injected sweep SIGKILLed mid-run (torn checkpoint
// writes included) and then resumed must produce a checkpoint store
// byte-identical to an uninterrupted run's. Every layer is on trial at
// once — identity-derived seeds and per-attempt fault determinism (the
// resumed process re-draws the same faults), torn-tail repair, CRC
// stamping, and resume-by-restore.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos differential; skipped in -short")
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "reference.jsonl")
	chaosPath := filepath.Join(dir, "chaos.jsonl")

	// The uninterrupted reference (no wall delay: results don't depend on it).
	if err := chaosSweep(refPath, 0); err != nil {
		t.Fatal(err)
	}

	// The victim: the same sweep in a child process, SIGKILLed once it has
	// checkpointed a few jobs.
	cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(), "SNUG_CHAOS_STORE="+chaosPath)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(chaosPath); err == nil && bytes.Count(data, []byte("\n")) >= 4 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("chaos child made no checkpoint progress in 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // expected to report the kill; the store is what matters

	// Resume in-process and compare stores byte for byte.
	if err := chaosSweep(chaosPath, 0); err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(chaosPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Errorf("resumed store differs from uninterrupted reference\nref %d bytes, resumed %d bytes", len(ref), len(got))
	}
}

// TestWrapZeroSpecIsFree: a spec without panic/err classes returns the job
// slice unwrapped, so the default path carries no extra indirection.
func TestWrapZeroSpecIsFree(t *testing.T) {
	jobs := []sweep.Job{{Key: "j", Run: func(uint64) (cmp.RunResult, error) { return cmp.RunResult{}, nil }}}
	for _, s := range []Spec{{}, {PutFail: 1}} {
		wrapped := s.Wrap(1, jobs)
		if len(wrapped) != 1 {
			t.Fatalf("Wrap changed the job count to %d", len(wrapped))
		}
		if _, err := wrapped[0].Run(1); err != nil {
			t.Errorf("spec %+v injected a job fault through Wrap", s)
		}
	}
}
