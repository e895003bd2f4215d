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
// Every sweep runs each cell's instruction streams through the cores' front
// ends once and replays the outcomes to the cell's schemes
// (cmp.StreamCache), bit-identical to live runs. The
// ablation is one fixed comparison: it reads -cycles, -par, -cores,
// -fullscale, -quiet and the profile flags, and refuses any other flag
// instead of ignoring it.
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

	"snug/internal/cli"
	"snug/internal/cmp"
	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/metrics"
	"snug/internal/report"
	"snug/internal/sweep"
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
	sf := cli.NewSweepFlags(fs, 2_000_000)
	classes := fs.String("classes", "", "comma-separated class subset (C1..C6); empty = all")
	schemes := fs.String("schemes", "", "comma-separated scheme subset (L2S,CC,DSR,SNUG); empty = all; L2P always runs")
	cores := fs.String("cores", "4", "core count for the figures, or a comma-separated list for -scaling (e.g. 4,8,16)")
	scaling := fs.Bool("scaling", false, "run the per-scheme scaling study across the -cores list instead of the figures")
	csvDir := fs.String("csv", "", "directory for CSV output (empty = none)")
	quiet := fs.Bool("quiet", false, "suppress per-run progress on stderr")
	ablation := fs.Bool("ablation", false, "run the SNUG ablation sweep instead of the figures")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err := sf.Start(); err != nil {
		return err
	}
	defer sf.Stop(&err)

	cfg := sf.System()
	coreCounts, err := parseCores(*cores)
	if err != nil {
		return err
	}

	if *ablation {
		// The ablation is one fixed comparison without a checkpoint: refuse
		// every flag it does not read instead of silently dropping it.
		var unused []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "ablation", "cycles", "par", "cores", "fullscale", "quiet", "cpuprofile", "memprofile":
			default:
				unused = append(unused, "-"+f.Name)
			}
		})
		if len(unused) > 0 {
			return fmt.Errorf("the ablation does not support %s; drop them for its fixed comparison", strings.Join(unused, " "))
		}
		if len(coreCounts) != 1 {
			return fmt.Errorf("the ablation runs at one core count (got -cores %s)", *cores)
		}
		cfg, err := config.WithCores(cfg, coreCounts[0])
		if err != nil {
			return err
		}
		return runAblation(ctx, stdout, cfg, sf.Cycles, sf.Par)
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

	opt := experiments.Options{
		Cfg: cfg, RunCycles: sf.Cycles, Parallelism: sf.Par, Classes: cls,
		Schemes: sch, Checkpoint: sf.Out, Progress: progress, Replicates: sf.Reps,
		FailurePolicy: sf.Policy, Retry: sf.Retry,
		Salvage: sf.Salvage, Sync: sf.Sync, Faults: sf.Faults,
	}
	if *scaling {
		return sf.Finish(runScaling(ctx, stdout, opt, coreCounts, *csvDir), stderr)
	}

	if len(coreCounts) != 1 {
		return fmt.Errorf("the figures run at one core count (got -cores %s); pass -scaling for the multi-width study", *cores)
	}
	if opt.Cfg, err = config.WithCores(cfg, coreCounts[0]); err != nil {
		return err
	}
	ev, err := experiments.Evaluate(ctx, opt)
	if err != nil {
		return sf.Finish(err, stderr)
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
func runScaling(ctx context.Context, stdout io.Writer, opt experiments.Options, coreCounts []int, csvDir string) error {
	res, err := experiments.ScalingStudy(ctx, opt, coreCounts)
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

// ablationVariants are the SNUG variants the ablation compares, each a
// change to the SNUG parameters alone.
var ablationVariants = []struct {
	name string
	mut  func(*config.System)
}{
	{"SNUG (paper config)", func(c *config.System) {}},
	{"no index-bit flipping", func(c *config.System) { c.SNUG.IndexFlip = false }},
	{"keep stranded CC blocks", func(c *config.System) { c.SNUG.DropOnFlip = false }},
	{"p=4 (threshold 1/4)", func(c *config.System) { c.SNUG.PDivisor = 4 }},
	{"p=16 (threshold 1/16)", func(c *config.System) { c.SNUG.PDivisor = 16 }},
	{"k=3 counter", func(c *config.System) { c.SNUG.CounterBits = 3 }},
	{"shadow 8-way", func(c *config.System) { c.SNUG.ShadowWays = 8 }},
	{"stage I x2", func(c *config.System) { c.SNUG.StageICycles *= 2 }},
}

// runAblation compares SNUG variants on the C1 stress tests plus one mixed
// combo per class — the design choices DESIGN.md calls out.
func runAblation(ctx context.Context, stdout io.Writer, base config.System, cycles int64, par int) error {
	// The quad-core A+A+D+D mix, replicated to the configured width the
	// same way workloads.ScaleOut widens Table 8.
	var bench []string
	for _, b := range []string{"ammp", "parser", "swim", "mesa"} {
		for r := 0; r < base.Cores/4; r++ {
			bench = append(bench, b)
		}
	}
	// All jobs share one seed key so every variant sees the same instruction
	// streams as the L2P baseline it is normalized against; the variants
	// mutate only controller parameters, never the seed, the L2 geometry
	// the streams derive from or the cores' front ends, so one cell of
	// tapes serves them all.
	seedKey := "ablation/" + strings.Join(bench, "+")
	cache, uses := cmp.NewStreamCache(), 1+len(ablationVariants)
	job := func(key, scheme string, mut func(*config.System)) sweep.Job {
		return sweep.Job{Key: key, SeedKey: seedKey, Run: func(seed uint64) (cmp.RunResult, error) {
			cfg := base
			cfg.Seed = seed
			mut(&cfg)
			return cache.Run(cfg, scheme, bench, cycles, uses)
		}}
	}
	jobs := []sweep.Job{job("L2P", "L2P", func(*config.System) {})}
	for _, v := range ablationVariants {
		jobs = append(jobs, job(v.name, "SNUG", v.mut))
	}
	results, err := sweep.Run(ctx, sweep.Options{Parallelism: par, BaseSeed: base.Seed}, jobs)
	if err != nil {
		return err
	}
	baseline := results["L2P"]
	fmt.Fprintf(stdout, "SNUG ablations on %v (normalized throughput vs L2P %.4f):\n", bench, baseline.Throughput())
	for _, v := range ablationVariants {
		r := results[v.name]
		fmt.Fprintf(stdout, "  %-26s %.4f  (spills=%d retrHits=%d)\n",
			v.name, r.Throughput()/baseline.Throughput(),
			r.Report.Spills, r.Report.RetrievalHits)
	}
	return nil
}
