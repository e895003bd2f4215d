// Package cli carries the pieces shared by the command-line front ends
// (cmd/experiments, cmd/snugsim, and -fullscale for cmd/characterize): the
// sweep and profile flags (SweepFlags), the system choice (FullScale),
// signal-driven graceful cancellation, and error-to-exit-code
// classification.
//
// The contract (README §"Interrupting and resuming"): the first
// SIGINT/SIGTERM cancels the command's context — the sweep engine stops
// dispatching, drains and checkpoints in-flight jobs — and the command
// exits ExitInterrupted with a resume hint; a second signal exits
// immediately. A ContinueOnError sweep that ran every job but saw failures
// exits ExitJobFailures, distinguishable from ExitError's
// nothing-useful-happened failures.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snug/internal/config"
	"snug/internal/faults"
	"snug/internal/prof"
	"snug/internal/sweep"
)

// Exit codes of both commands.
const (
	ExitOK          = 0   // success
	ExitError       = 1   // usage or execution error
	ExitJobFailures = 3   // sweep completed under ContinueOnError, some jobs failed
	ExitInterrupted = 130 // canceled by SIGINT/SIGTERM (128 + SIGINT)
)

// SignalContext returns a context canceled by the first SIGINT/SIGTERM
// (announcing the drain on stderr) and a stop function releasing the
// handler. A second signal exits the process immediately with
// ExitInterrupted, skipping the drain.
func SignalContext(name string, stderr io.Writer) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(stderr, "%s: %v — stopping dispatch, draining and checkpointing in-flight runs (interrupt again to exit immediately)\n", name, sig)
		cancel(&signalError{sig: sig})
		if _, ok := <-ch; ok {
			os.Exit(ExitInterrupted)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel(nil)
	}
}

// signalError is the cancellation cause set by SignalContext. The sweep
// engine wraps context.Cause(ctx) into its returned error, so the cause
// itself must satisfy errors.Is(err, context.Canceled) for ExitCode and
// SweepFlags.Finish to classify the chain as an interruption while the
// message still names the signal.
type signalError struct{ sig os.Signal }

func (e *signalError) Error() string        { return e.sig.String() }
func (e *signalError) Is(target error) bool { return target == context.Canceled }

// Completed marks a command error whose run still executed every job
// (FailPolicy continue): the work finished, some cells failed. ExitCode
// maps it to ExitJobFailures.
type Completed struct{ Err error }

func (c *Completed) Error() string { return c.Err.Error() }
func (c *Completed) Unwrap() error { return c.Err }

// ExitCode classifies a command error into the exit codes above.
// Interruption wins over job failures: a canceled ContinueOnError sweep
// did not run everything, so it must exit as interrupted.
func ExitCode(err error) int {
	var done *Completed
	switch {
	case err == nil:
		return ExitOK
	case errors.Is(err, context.Canceled):
		return ExitInterrupted
	case errors.As(err, &done):
		return ExitJobFailures
	default:
		return ExitError
	}
}

// FullScale registers -fullscale on fs and returns the base system it
// chooses: the scaled test system (64-set slices, 100k-cycle Stage I) by
// default, or with -fullscale the Table 4 system with SNUG's stages cut
// 50× (config.Scaled(50)), so that a run of a few million cycles still
// leaves Stage I.
func FullScale(fs *flag.FlagSet) (system func() config.System) {
	full := fs.Bool("fullscale", false, "Table 4 full-size system with SNUG's stages cut 50x (slow; default is the scaled 64-set test system)")
	return func() config.System {
		if *full {
			return config.Scaled(50)
		}
		return config.TestScale()
	}
}

// SweepFlags are the sweep and profile flags both commands take:
// NewSweepFlags registers them, Start validates them and starts the
// profiles, Stop writes the profiles, and Finish turns a sweep's error
// into the command's.
type SweepFlags struct {
	Cycles  int64           // -cycles: simulated cycles per run
	Par     int             // -par: concurrent simulations (0 = GOMAXPROCS)
	Reps    int             // -reps: independently-seeded replicates per run
	Out     string          // -out: checkpoint store ("" = none)
	Resume  bool            // -resume: continue the -out store
	Salvage bool            // -salvage: quarantine corrupt store lines
	Sync    int             // -sync: fsync the store every N runs (0 = never)
	Retry   sweep.RetrySpec // -retries and -backoff
	// Policy and Faults are -failpolicy and -inject, parsed by Start.
	Policy sweep.FailurePolicy
	Faults faults.Spec
	// System returns the base system -fullscale chose (see FullScale).
	System func() config.System

	name                                       string
	failpolicy, inject, cpuprofile, memprofile string
	stopProfiles                               func() error
}

// NewSweepFlags registers the sweep and profile flags on fs, whose name
// is the command's; cycles is the command's default run length.
func NewSweepFlags(fs *flag.FlagSet, cycles int64) *SweepFlags {
	f := &SweepFlags{name: fs.Name(), System: FullScale(fs)}
	fs.Int64Var(&f.Cycles, "cycles", cycles, "cycles to simulate per run")
	fs.IntVar(&f.Par, "par", 0, "concurrent simulations (0 = GOMAXPROCS); not capped at GOMAXPROCS, and results never depend on it")
	fs.IntVar(&f.Reps, "reps", 1, "independently-seeded replicates per run; >1 reports mean ±95% CI")
	fs.StringVar(&f.Out, "out", "", "sweep results store: completed runs are checkpointed here as JSON lines")
	fs.BoolVar(&f.Resume, "resume", false, "resume from -out, skipping runs already checkpointed")
	fs.BoolVar(&f.Salvage, "salvage", false, "open the -out checkpoint in salvage mode: quarantine corrupt lines to <out>.quarantine and rerun their jobs instead of refusing to resume")
	fs.IntVar(&f.Sync, "sync", 0, "fsync the checkpoint every N completed runs (0 = leave durability to the OS)")
	fs.StringVar(&f.failpolicy, "failpolicy", "fast", "response to failed runs: \"fast\" stops at the first failure, \"continue\" runs every job and aggregates failures (exit code 3)")
	fs.IntVar(&f.Retry.Attempts, "retries", 0, "re-run a failed run up to this many times with the same seed (transient faults only; deterministic failures repeat)")
	fs.DurationVar(&f.Retry.Backoff, "backoff", 100*time.Millisecond, "initial delay before a retry, doubling per attempt (capped)")
	fs.StringVar(&f.inject, "inject", "", "deterministic fault injection spec, e.g. \"panic:0.02,err:0.05,putfail:0.01\" (chaos testing; results are unaffected)")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// Start validates the parsed flags, parses -failpolicy and -inject, and
// starts the profiles. A command whose Start succeeds defers Stop.
func (f *SweepFlags) Start() error {
	if err := f.validate(); err != nil {
		return err
	}
	stop, err := prof.Start(f.cpuprofile, f.memprofile)
	f.stopProfiles = stop
	return err
}

// Stop writes the profiles Start began; a failure lands in *err unless it
// already holds an error.
func (f *SweepFlags) Stop(err *error) {
	if perr := f.stopProfiles(); perr != nil && *err == nil {
		*err = perr
	}
}

func (f *SweepFlags) validate() error {
	switch {
	case f.Cycles <= 0:
		return fmt.Errorf("-cycles %d: run length must be positive", f.Cycles)
	case f.Par < 0:
		return fmt.Errorf("-par %d: worker count must be non-negative (0 = GOMAXPROCS)", f.Par)
	case f.Reps < 1:
		return fmt.Errorf("-reps %d: replicate count must be at least 1", f.Reps)
	case f.Sync < 0:
		return fmt.Errorf("-sync %d: fsync cadence must be non-negative", f.Sync)
	case f.Retry.Attempts < 0:
		return fmt.Errorf("-retries %d: retry count must be non-negative", f.Retry.Attempts)
	case f.Retry.Backoff < 0:
		return fmt.Errorf("-backoff %v: retry delay must be non-negative", f.Retry.Backoff)
	case f.Resume && f.Out == "":
		return fmt.Errorf("-resume requires -out")
	case f.Salvage && f.Out == "":
		return fmt.Errorf("-salvage requires -out")
	}
	switch f.failpolicy {
	case "", "fast":
		f.Policy = sweep.FailFast
	case "continue":
		f.Policy = sweep.ContinueOnError
	default:
		return fmt.Errorf("-failpolicy %q: want \"fast\" or \"continue\"", f.failpolicy)
	}
	var err error
	if f.Faults, err = faults.ParseSpec(f.inject); err != nil {
		return err
	}
	if f.Out != "" && !f.Resume {
		// Never silently destroy prior results: a completed checkpoint may
		// represent hours of simulation.
		if st, err := os.Stat(f.Out); err == nil && st.Size() > 0 {
			return fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or delete it for a fresh sweep", f.Out)
		}
	}
	return nil
}

// Finish turns a sweep's error into the command's: an interrupted sweep
// with a store prints the resume hint on stderr, and job failures under
// -failpolicy continue, which ran every job, become Completed.
func (f *SweepFlags) Finish(err error, stderr io.Writer) error {
	if err == nil {
		return nil
	}
	interrupted := errors.Is(err, context.Canceled)
	if interrupted && f.Out != "" {
		fmt.Fprintf(stderr, "%s: interrupted — completed runs are checkpointed; resume with -out %s -resume\n", f.name, f.Out)
	}
	if interrupted || f.Policy != sweep.ContinueOnError || len(sweep.JobErrors(err)) == 0 {
		return err
	}
	return &Completed{Err: err}
}
