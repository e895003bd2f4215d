// Command characterize regenerates the paper's Figures 1–3: the
// distribution of set-level capacity demand (block_required bucketed into
// M ranges) over consecutive sampling intervals, for a single benchmark.
//
// Usage:
//
//	characterize -bench ammp                    # Figure 1, scaled run
//	characterize -bench ammp -fullscale         # on the Table 4 system
//	characterize -bench vortex -full            # paper-scale: 1000 x 100K
//	characterize -bench applu -csv out.csv      # per-interval CSV
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"snug/internal/cli"
	"snug/internal/config"
	"snug/internal/experiments"
	"snug/internal/report"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return // -h/-help: usage already printed, a successful exit
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "characterize:", err)
		os.Exit(1)
	}
}

// run executes the command with the given arguments; main is a thin
// wrapper so tests can drive the full flag-to-output path.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "ammp", "benchmark to characterize (see snugsim -list)")
	intervals := fs.Int("intervals", 200, "number of sampling intervals")
	accesses := fs.Int64("accesses", 20_000, "L2 accesses per interval")
	full := fs.Bool("full", false, "paper-scale methodology: 1000 intervals x 100K accesses on the Table 4 system")
	system := cli.FullScale(fs)
	csvPath := fs.String("csv", "", "also write the per-interval series as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	opt := experiments.CharacterizeOptions{
		Benchmark:           *bench,
		Cfg:                 system(),
		Intervals:           *intervals,
		AccessesPerInterval: *accesses,
	}
	if *full {
		opt.Cfg = config.Default()
		opt.Intervals = 1000
		opt.AccessesPerInterval = 100_000
	}

	chz, err := experiments.Characterize(opt)
	if err != nil {
		return err
	}

	title := fmt.Sprintf("Set-level capacity demand distribution: %s", *bench)
	if fig := experiments.FigureFor(*bench); fig != 0 {
		title = fmt.Sprintf("Figure %d — %s", fig, title)
	}
	if err := report.WriteCharacterization(stdout, title, chz); err != nil {
		return err
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := report.WriteCharacterizationCSV(f, chz); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}
	return nil
}
