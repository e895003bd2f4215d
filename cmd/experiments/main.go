// Command experiments runs the paper's full evaluation (Figures 9, 10 and
// 11 over the 21 Table 8 workload combinations), the SNUG ablation sweep,
// and the N-core scaling study, printing figure-shaped tables and optional
// CSV.
//
// Usage:
//
//	experiments                         # all classes, all three figures
//	experiments -classes C1,C5          # subset
//	experiments -cycles 4000000 -par 4  # longer runs, fixed worker count
//	experiments -reps 5                 # replicated runs, mean ±95% CI cells
//	experiments -cores 8                # the figures on the 8-core system
//	experiments -scaling -cores 4,8,16  # per-scheme scaling study
//	experiments -out sweep.json         # checkpoint completed runs
//	experiments -out sweep.json -resume # continue an interrupted sweep
//	experiments -failpolicy continue -retries 3   # run everything, retry failures
//	experiments -out sweep.json -resume -salvage  # quarantine corrupt checkpoint lines
//	experiments -inject panic:0.02,err:0.05       # deterministic chaos testing
//	experiments -ablation               # SNUG design-choice ablations
//
// On SIGINT/SIGTERM the sweep stops dispatching, drains and checkpoints
// in-flight runs, prints a resume hint, and exits 130; a second signal
// exits immediately. Exit codes: 0 success, 1 error, 3 completed with job
// failures under -failpolicy continue, 130 interrupted. See DESIGN.md
// "Failure model".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"snug/internal/cli"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/faults"
	"snug/internal/metrics"
	"snug/internal/prof"
	"snug/internal/report"
	"snug/internal/sweep"
	"snug/internal/trace"
)

// figures are the three evaluation metrics in paper order.
var figures = []struct {
	num    int
	metric metrics.MetricKind
	title  string
}{
	{9, metrics.MetricThroughput, "Figure 9 — Throughput normalized to L2P"},
	{10, metrics.MetricAWS, "Figure 10 — Average Weighted Speedup"},
	{11, metrics.MetricFS, "Figure 11 — Fair Speedup"},
}

func main() {
	ctx, stop := cli.SignalContext("experiments", os.Stderr)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if errors.Is(err, flag.ErrHelp) {
		return // -h/-help: usage already printed, a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run executes the command with the given arguments; main is a thin
// wrapper so tests can drive the full flag-to-output path. Canceling ctx
// (main wires it to SIGINT/SIGTERM) drains and checkpoints in-flight runs
// before run returns.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cycles := fs.Int64("cycles", 2_000_000, "cycles per simulation")
	par := fs.Int("par", 0, "concurrent simulations (0 = GOMAXPROCS); not capped at GOMAXPROCS, and results never depend on it")
	reps := fs.Int("reps", 1, "independently-seeded replicates per run; >1 reports mean ±95% CI")
	classes := fs.String("classes", "", "comma-separated class subset (C1..C6); empty = all")
	schemes := fs.String("schemes", "", "comma-separated scheme subset (L2S,CC,DSR,SNUG); empty = all; L2P always runs")
	cores := fs.String("cores", "4", "core count for the figures, or a comma-separated list for -scaling (e.g. 4,8,16)")
	scaling := fs.Bool("scaling", false, "run the per-scheme scaling study across the -cores list instead of the figures")
	csvDir := fs.String("csv", "", "directory for CSV output (empty = none)")
	out := fs.String("out", "", "sweep results store: completed runs are checkpointed here as JSON lines")
	resume := fs.Bool("resume", false, "resume from -out, skipping runs already checkpointed")
	quiet := fs.Bool("quiet", false, "suppress per-run progress on stderr")
	replay := fs.Bool("replay", true, "record each cell's instruction streams once and replay them to every scheme (bit-identical results); false regenerates streams live per run")
	ablation := fs.Bool("ablation", false, "run the SNUG ablation sweep instead of the figures")
	fullScale := fs.Bool("fullscale", false, "Table 4 full-size system (slow; default is the scaled test system)")
	failpolicy := fs.String("failpolicy", "fast", "response to failed runs: \"fast\" stops at the first failure, \"continue\" runs every cell and aggregates failures (exit code 3)")
	retries := fs.Int("retries", 0, "re-run a failed run up to this many times with the same seed (transient faults only; deterministic failures repeat)")
	backoff := fs.Duration("backoff", 100*time.Millisecond, "initial delay before a retry, doubling per attempt (capped)")
	salvage := fs.Bool("salvage", false, "open the -out checkpoint in salvage mode: quarantine corrupt lines to <out>.quarantine and rerun their jobs instead of refusing to resume")
	syncEvery := fs.Int("sync", 0, "fsync the checkpoint every N completed runs (0 = leave durability to the OS)")
	inject := fs.String("inject", "", "deterministic fault injection spec, e.g. \"panic:0.02,err:0.05,putfail:0.01\" (chaos testing; results are unaffected)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	cfg := config.TestScale()
	if *fullScale {
		cfg = config.Scaled(50)
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d: replicate count must be at least 1", *reps)
	}
	coreCounts, err := parseCores(*cores)
	if err != nil {
		return err
	}
	policy, err := cli.ParseFailurePolicy(*failpolicy)
	if err != nil {
		return err
	}
	if *retries < 0 {
		return fmt.Errorf("-retries %d: retry count must be non-negative", *retries)
	}
	retry := sweep.RetrySpec{Attempts: *retries, Backoff: *backoff}
	injectSpec, err := faults.ParseSpec(*inject)
	if err != nil {
		return err
	}
	if *salvage && *out == "" {
		return fmt.Errorf("-salvage requires -out")
	}

	if *ablation {
		if len(coreCounts) != 1 {
			return fmt.Errorf("the ablation runs at one core count (got -cores %s)", *cores)
		}
		if *reps > 1 {
			return fmt.Errorf("the ablation does not support -reps yet; drop the flag for its single-seed comparison")
		}
		cfg, err := config.WithCores(cfg, coreCounts[0])
		if err != nil {
			return err
		}
		return runAblation(ctx, stdout, cfg, *cycles, *par, *replay)
	}

	if *resume && *out == "" {
		return fmt.Errorf("-resume requires -out")
	}
	if *out != "" && !*resume {
		// Never silently destroy prior results: a completed checkpoint may
		// represent hours of simulation.
		if st, err := os.Stat(*out); err == nil && st.Size() > 0 {
			return fmt.Errorf("checkpoint %s already exists; pass -resume to continue it or delete it for a fresh sweep", *out)
		}
	}

	var cls []string
	if *classes != "" {
		cls = strings.Split(*classes, ",")
	}
	var sch []string
	if *schemes != "" {
		sch = strings.Split(*schemes, ",")
	}
	var progress func(sweep.Progress)
	if !*quiet {
		progress = func(p sweep.Progress) { fmt.Fprintln(stderr, report.ProgressLine(p)) }
	}

	if *scaling {
		err := runScaling(ctx, stdout, experiments.ScalingOptions{
			BaseCfg: cfg, CoreCounts: coreCounts, RunCycles: *cycles,
			Parallelism: *par, Classes: cls, Schemes: sch,
			Checkpoint: *out, Progress: progress, Replicates: *reps,
			NoReplay:      !*replay,
			FailurePolicy: policy, Retry: retry,
			Salvage: *salvage, Sync: *syncEvery, Faults: injectSpec,
		}, *csvDir)
		cli.ResumeHint(err, stderr, "experiments", *out)
		return cli.WrapCompleted(err, policy == sweep.ContinueOnError)
	}

	if len(coreCounts) != 1 {
		return fmt.Errorf("the figures run at one core count (got -cores %s); pass -scaling for the multi-width study", *cores)
	}
	cfg, err = config.WithCores(cfg, coreCounts[0])
	if err != nil {
		return err
	}
	ev, err := experiments.Evaluate(ctx, experiments.Options{
		Cfg: cfg, RunCycles: *cycles, Parallelism: *par, Classes: cls,
		Schemes: sch, Checkpoint: *out, Progress: progress, Replicates: *reps,
		NoReplay:      !*replay,
		FailurePolicy: policy, Retry: retry,
		Salvage: *salvage, Sync: *syncEvery, Faults: injectSpec,
	})
	if err != nil {
		cli.ResumeHint(err, stderr, "experiments", *out)
		return cli.WrapCompleted(err, policy == sweep.ContinueOnError)
	}

	for _, f := range figures {
		cs, err := ev.Figure(f.metric)
		if err != nil {
			return err
		}
		if err := report.WriteFigure(stdout, f.title, cs); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if *csvDir != "" {
			path := fmt.Sprintf("%s/figure%d.csv", *csvDir, f.num)
			if err := writeCSV(path, func(w io.Writer) error { return report.WriteFigureCSV(w, cs) }); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "wrote", path)
		}
	}
	fmt.Fprintln(stdout, "Per-combination detail (normalized throughput):")
	return report.WriteCombos(stdout, ev)
}

// runScaling executes the scaling study and prints one table per metric.
func runScaling(ctx context.Context, stdout io.Writer, opt experiments.ScalingOptions, csvDir string) error {
	res, err := experiments.ScalingStudy(ctx, opt)
	if err != nil {
		return err
	}
	for _, f := range figures {
		s, err := res.Series(f.metric)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("Scaling — %s vs core count (cross-class average)", f.metric)
		if err := report.WriteScaling(stdout, title, s); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if csvDir != "" {
			path := fmt.Sprintf("%s/scaling_%s.csv", csvDir, f.metric)
			if err := writeCSV(path, func(w io.Writer) error { return report.WriteScalingCSV(w, s) }); err != nil {
				return err
			}
			fmt.Fprintln(stdout, "wrote", path)
		}
	}
	return nil
}

// parseCores parses the -cores list.
func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-cores %q: %v", s, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// writeCSV creates path and streams one CSV writer into it.
func writeCSV(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAblation compares SNUG variants on the C1 stress tests plus one mixed
// combo per class — the design choices DESIGN.md calls out.
func runAblation(ctx context.Context, stdout io.Writer, base config.System, cycles int64, par int, replay bool) error {
	// The quad-core A+A+D+D mix, replicated to the configured width the
	// same way workloads.ScaleOut widens Table 8.
	var bench []string
	for _, b := range []string{"ammp", "parser", "swim", "mesa"} {
		for r := 0; r < base.Cores/4; r++ {
			bench = append(bench, b)
		}
	}
	type variant struct {
		name string
		mut  func(*config.System)
	}
	variants := []variant{
		{"SNUG (paper config)", func(c *config.System) {}},
		{"no index-bit flipping", func(c *config.System) { c.SNUG.IndexFlip = false }},
		{"keep stranded CC blocks", func(c *config.System) { c.SNUG.DropOnFlip = false }},
		{"p=4 (threshold 1/4)", func(c *config.System) { c.SNUG.PDivisor = 4 }},
		{"p=16 (threshold 1/16)", func(c *config.System) { c.SNUG.PDivisor = 16 }},
		{"k=3 counter", func(c *config.System) { c.SNUG.CounterBits = 3 }},
		{"shadow 8-way", func(c *config.System) { c.SNUG.ShadowWays = 8 }},
		{"stage I x2", func(c *config.System) { c.SNUG.StageICycles *= 2 }},
	}
	// All jobs share one seed key so every variant sees the same instruction
	// streams as the L2P baseline it is normalized against.
	seedKey := "ablation/" + strings.Join(bench, "+")
	// With replay, record those shared streams once and replay them to
	// every variant: the variants mutate only controller parameters, never
	// the seed or the L2 geometry the streams derive from. The shared seed
	// is derivable up front, exactly as in cmd/snugsim.
	var recordings []*trace.Recording
	if replay {
		c := base
		c.Seed = sweep.JobSeed(base.Seed, seedKey)
		streams, err := cmp.WorkloadStreams(c, bench, cmp.PhaseRefs(cycles))
		if err != nil {
			return err
		}
		recordings = trace.RecordAll(streams)
	}
	job := func(key, scheme string, mut func(*config.System)) sweep.Job {
		return sweep.Job{Key: key, SeedKey: seedKey, Run: func(seed uint64) (cmp.RunResult, error) {
			cfg := base
			cfg.Seed = seed
			mut(&cfg)
			if recordings != nil {
				return cmp.RunStreams(cfg, scheme, trace.Replays(recordings), cycles)
			}
			return cmp.RunWorkload(cfg, scheme, bench, cycles)
		}}
	}
	jobs := []sweep.Job{job("L2P", "L2P", func(*config.System) {})}
	for _, v := range variants {
		jobs = append(jobs, job(v.name, "SNUG", v.mut))
	}
	results, err := sweep.Run(ctx, sweep.Options{Parallelism: par, BaseSeed: base.Seed}, jobs)
	if err != nil {
		return err
	}
	baseline := results["L2P"]
	fmt.Fprintf(stdout, "SNUG ablations on %v (normalized throughput vs L2P %.4f):\n", bench, baseline.Throughput())
	for _, v := range variants {
		r := results[v.name]
		fmt.Fprintf(stdout, "  %-26s %.4f  (spills=%d retrHits=%d)\n",
			v.name, r.Throughput()/baseline.Throughput(),
			r.Report.Spills, r.Report.RetrievalHits)
	}
	return nil
}
