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

	opt := sf.Opt
	if !*quiet {
		opt.Progress = func(p sweep.Progress) { fmt.Fprintln(stderr, report.ProgressLine(p)) }
	}
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
		if opt.Cfg, err = config.WithCores(opt.Cfg, coreCounts[0]); err != nil {
			return err
		}
		return runAblation(ctx, stdout, opt)
	}

	if *classes != "" {
		opt.Classes = strings.Split(*classes, ",")
	}
	if *schemes != "" {
		opt.Schemes = strings.Split(*schemes, ",")
	}
	if *scaling {
		return sf.Finish(runScaling(ctx, stdout, opt, coreCounts, *csvDir), stderr)
	}

	if len(coreCounts) != 1 {
		return fmt.Errorf("the figures run at one core count (got -cores %s); pass -scaling for the multi-width study", *cores)
	}
	if opt.Cfg, err = config.WithCores(opt.Cfg, coreCounts[0]); err != nil {
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
// change to the SNUG parameters alone (none for the paper's).
var ablationVariants = []struct {
	name   string
	change func(config.System) config.System
}{
	{"SNUG (paper config)", nil},
	{"no index-bit flipping", func(c config.System) config.System { c.SNUG.IndexFlip = false; return c }},
	{"keep stranded CC blocks", func(c config.System) config.System { c.SNUG.DropOnFlip = false; return c }},
	{"p=4 (threshold 1/4)", func(c config.System) config.System { c.SNUG.PDivisor = 4; return c }},
	{"p=16 (threshold 1/16)", func(c config.System) config.System { c.SNUG.PDivisor = 16; return c }},
	{"k=3 counter", func(c config.System) config.System { c.SNUG.CounterBits = 3; return c }},
	{"shadow 8-way", func(c config.System) config.System { c.SNUG.ShadowWays = 8; return c }},
	{"stage I x2", func(c config.System) config.System { c.SNUG.StageICycles *= 2; return c }},
}

// runAblation compares the SNUG variants against L2P on one A+A+D+D mix,
// ammp+parser+swim+mesa widened to opt.Cfg's core count: the design
// choices DESIGN.md calls out.
func runAblation(ctx context.Context, stdout io.Writer, opt experiments.Options) error {
	// The quad-core mix, replicated to the configured width the same way
	// workloads.ScaleOut widens Table 8.
	var bench []string
	for _, b := range []string{"ammp", "parser", "swim", "mesa"} {
		for r := 0; r < opt.Cfg.Cores/4; r++ {
			bench = append(bench, b)
		}
	}
	// One cell, so every variant sees the instruction streams of the L2P
	// baseline it is normalized against; the variants change only SNUG's
	// parameters, never the seed, the L2 geometry the streams derive from
	// or the cores' front ends, so one set of tapes serves them all.
	cell := experiments.Cell{
		SeedKey: "ablation/" + strings.Join(bench, "+"), Cfg: opt.Cfg, Benchmarks: bench,
		Runs: []experiments.Run{{Key: "L2P", Scheme: "L2P"}},
	}
	for _, v := range ablationVariants {
		cell.Runs = append(cell.Runs, experiments.Run{Key: v.name, Scheme: "SNUG", Change: v.change})
	}
	results, err := experiments.Sweep(ctx, opt, "ablation", "", []experiments.Cell{cell})
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
