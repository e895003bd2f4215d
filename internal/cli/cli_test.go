package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/sweep"
)

// interruptedChain mirrors what a command sees after a signal: the sweep
// engine wraps context.Cause(ctx) — the signalError set by SignalContext —
// not context.Canceled itself.
func interruptedChain() error {
	return fmt.Errorf("sweep: interrupted (in-flight jobs drained and checkpointed): %w",
		&signalError{sig: syscall.SIGINT})
}

// TestExitCode pins the classification table — in particular that a chain
// wrapping the signal cause (not bare context.Canceled) still exits 130,
// the regression the signalError.Is method exists to prevent.
func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, ExitOK},
		{"generic", errors.New("boom"), ExitError},
		{"job failures", &Completed{Err: errors.New("2 jobs failed")}, ExitJobFailures},
		{"signal chain", interruptedChain(), ExitInterrupted},
		{"bare canceled", context.Canceled, ExitInterrupted},
		{"interrupted wins over completed", &Completed{Err: interruptedChain()}, ExitInterrupted},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: ExitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestResumeHint(t *testing.T) {
	var buf bytes.Buffer
	(&SweepFlags{name: "experiments", Opt: experiments.Options{Checkpoint: "sweep.json"}}).Finish(interruptedChain(), &buf)
	if !strings.Contains(buf.String(), "experiments: interrupted") || !strings.Contains(buf.String(), "-out sweep.json -resume") {
		t.Errorf("signal-interrupted run with a store printed %q, want a resume hint", buf.String())
	}
	for name, c := range map[string]struct {
		err error
		out string
	}{
		"no store":     {interruptedChain(), ""},
		"not canceled": {errors.New("boom"), "sweep.json"},
	} {
		var b bytes.Buffer
		(&SweepFlags{name: "experiments", Opt: experiments.Options{Checkpoint: c.out}}).Finish(c.err, &b)
		if b.Len() != 0 {
			t.Errorf("%s: Finish printed %q, want nothing", name, b.String())
		}
	}
}

func TestWrapCompleted(t *testing.T) {
	finish := func(err error, policy sweep.FailurePolicy) error {
		return (&SweepFlags{Opt: experiments.Options{FailurePolicy: policy}}).Finish(err, io.Discard)
	}
	jobErr := &sweep.JobError{Key: "k", Err: errors.New("boom")}
	if _, ok := finish(jobErr, sweep.ContinueOnError).(*Completed); !ok {
		t.Error("job failure under ContinueOnError was not marked Completed")
	}
	if _, ok := finish(jobErr, sweep.FailFast).(*Completed); ok {
		t.Error("FailFast error was marked Completed")
	}
	canceled := fmt.Errorf("job failed before cancel: %w", errors.Join(jobErr, interruptedChain()))
	if _, ok := finish(canceled, sweep.ContinueOnError).(*Completed); ok {
		t.Error("interrupted sweep was marked Completed — it did not run everything")
	}
	if finish(errors.New("setup"), sweep.ContinueOnError) == nil {
		t.Error("setup error dropped")
	}
	if finish(nil, sweep.ContinueOnError) != nil {
		t.Error("success became an error")
	}
}

// TestSweepFlags covers every rule the shared validator enforces, each
// case through a fresh FlagSet as a command parses it, including the
// no-overwrite guard on -out and the -failpolicy and -inject parses.
func TestSweepFlags(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.json")
	const stored = "{\"fingerprint\":\"evaluate/v1\"}\n"
	if err := os.WriteFile(full, []byte(stored), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = accepted
		check   func(*SweepFlags) bool
	}{
		{"defaults", nil, "", func(f *SweepFlags) bool {
			o := f.Opt
			return o.RunCycles == 1000 && o.Parallelism == 0 && o.Replicates == 1 && o.FailurePolicy == sweep.FailFast &&
				o.Retry == sweep.RetrySpec{Backoff: 100 * time.Millisecond} && reflect.DeepEqual(o.Cfg, config.TestScale())
		}},
		{"cycles 0", []string{"-cycles", "0"}, "-cycles 0", nil},
		{"cycles -5", []string{"-cycles", "-5"}, "-cycles -5", nil},
		{"reps 0", []string{"-reps", "0"}, "-reps 0", nil},
		{"par -1", []string{"-par", "-1"}, "-par -1", nil},
		{"sync -1", []string{"-sync", "-1", "-out", filepath.Join(dir, "s.json")}, "-sync -1", nil},
		{"retries -1", []string{"-retries", "-1"}, "-retries -1", nil},
		{"backoff -1s", []string{"-backoff", "-1s"}, "-backoff -1s", nil},
		{"resume without out", []string{"-resume"}, "-resume requires -out", nil},
		{"salvage without out", []string{"-salvage"}, "-salvage requires -out", nil},
		{"failpolicy bogus", []string{"-failpolicy", "bogus"}, "-failpolicy", nil},
		{"failpolicy empty", []string{"-failpolicy", ""}, "", func(f *SweepFlags) bool { return f.Opt.FailurePolicy == sweep.FailFast }},
		{"failpolicy fast", []string{"-failpolicy", "fast"}, "", func(f *SweepFlags) bool { return f.Opt.FailurePolicy == sweep.FailFast }},
		{"failpolicy continue", []string{"-failpolicy", "continue"}, "", func(f *SweepFlags) bool { return f.Opt.FailurePolicy == sweep.ContinueOnError }},
		{"inject bogus", []string{"-inject", "panic:2"}, "bad probability", nil},
		{"inject", []string{"-inject", "err:0.5"}, "", func(f *SweepFlags) bool { return f.Opt.Faults.Err == 0.5 }},
		{"overwrite refused", []string{"-out", full}, "already exists", nil},
		{"empty store accepted", []string{"-out", empty}, "", nil},
		{"resume onto a store", []string{"-out", full, "-resume", "-salvage", "-sync", "2"}, "", func(f *SweepFlags) bool {
			return f.Opt.Checkpoint == full && f.resume && f.Opt.Salvage && f.Opt.Sync == 2
		}},
		{"fullscale", []string{"-fullscale"}, "", func(f *SweepFlags) bool { return reflect.DeepEqual(f.Opt.Cfg, config.Scaled(50)) }},
		{"bounds", []string{"-par", "3", "-reps", "4", "-retries", "5", "-backoff", "0s"}, "", func(f *SweepFlags) bool {
			return f.Opt.Parallelism == 3 && f.Opt.Replicates == 4 && f.Opt.Retry == sweep.RetrySpec{Attempts: 5}
		}},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := NewSweepFlags(fs, 1000)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		err := f.Start()
		if err == nil {
			f.Stop(&err)
		}
		switch {
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: Start() = %v, want an error naming %q", c.name, err, c.wantErr)
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: Start() = %v, want success", c.name, err)
		case err == nil && c.check != nil && !c.check(f):
			t.Errorf("%s: parsed flags %+v", c.name, f)
		}
	}
	if got, err := os.ReadFile(full); err != nil || string(got) != stored {
		t.Errorf("refused store changed: %q, %v", got, err)
	}
}

// TestSignalContextCancelsAsCanceled delivers a real SIGINT and checks the
// context cancels with a cause the rest of the chain classifies as an
// interruption (the end-to-end contract behind exit code 130).
func TestSignalContextCancelsAsCanceled(t *testing.T) {
	var buf bytes.Buffer
	ctx, stop := SignalContext("test", &buf)
	defer stop()
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the context")
	}
	cause := context.Cause(ctx)
	if !errors.Is(cause, context.Canceled) {
		t.Errorf("cancellation cause %v does not match context.Canceled — exit code and resume hint would misclassify", cause)
	}
	if got := ExitCode(fmt.Errorf("sweep: interrupted: %w", cause)); got != ExitInterrupted {
		t.Errorf("ExitCode on the wrapped cause = %d, want %d", got, ExitInterrupted)
	}
	if !strings.Contains(buf.String(), "draining") {
		t.Errorf("drain announcement missing from stderr: %q", buf.String())
	}
}
