// Package report renders experiment results as aligned ASCII tables and
// CSV, in the shape of the paper's figures: one row per workload class plus
// the average, one column per scheme (Figures 9–11); one row per sampling-
// interval window, one column per demand bucket (Figures 1–3).
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"snug/internal/experiments"
	"snug/internal/stackdist"
	"snug/internal/sweep"
)

// WriteFigure renders a Figures 9–11 dataset as an aligned table. Columns
// follow the series' scheme list, so partial evaluations (Options.Schemes)
// render cleanly; replicated series render each cell as mean ±95% CI.
func WriteFigure(w io.Writer, title string, cs experiments.ClassSeries) error {
	return writeTable(w, title, "class", cs)
}

// WriteFigureCSV renders the same dataset as CSV; replicated series gain a
// "<scheme>_ci95" half-width column per scheme.
func WriteFigureCSV(w io.Writer, cs experiments.ClassSeries) error {
	return writeCSV(w, "class", cs)
}

// writeTable is the one aligned-table body of the figures and the scaling
// study: a row per cs.Classes label under the first column's header, a
// column per scheme.
func writeTable(w io.Writer, title, first string, cs experiments.ClassSeries) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	if cs.Replicates > 1 {
		if _, err := fmt.Fprintf(w, "(mean ±95%% CI over %d replicates)\n", cs.Replicates); err != nil {
			return err
		}
	}
	rows := [][]string{append([]string{first}, cs.Schemes...)}
	for i, label := range cs.Classes {
		row := []string{label}
		for _, s := range cs.Schemes {
			row = append(row, cs.Cell(s, i).String())
		}
		rows = append(rows, row)
	}
	return writeAligned(w, rows)
}

// writeCSV is writeTable's CSV twin. A replicated series (CI set) gains a
// "<scheme>_ci95" half-width column after each scheme's column; a
// single-replicate one has only the value columns.
func writeCSV(w io.Writer, first string, cs experiments.ClassSeries) error {
	header := []string{first}
	for _, s := range cs.Schemes {
		header = append(header, s)
		if cs.CI != nil {
			header = append(header, s+"_ci95")
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i, label := range cs.Classes {
		var vals []string
		for _, s := range cs.Schemes {
			vals = append(vals, fmt.Sprintf("%.4f", cs.Values[s][i]))
			if cs.CI != nil {
				vals = append(vals, fmt.Sprintf("%.4f", cs.CI[s][i]))
			}
		}
		if _, err := fmt.Fprintf(w, "%s,%s\n", label, strings.Join(vals, ",")); err != nil {
			return err
		}
	}
	return nil
}

// WriteCombos renders per-combo detail of replicate 0: normalized
// throughput per scheme and the CC(Best) spill probability chosen.
func WriteCombos(w io.Writer, ev *experiments.Evaluation) error {
	rows := [][]string{{"class", "combo", "L2S", "CC(Best)", "ccPct", "DSR", "SNUG"}}
	norm := func(cr experiments.ComboResult, scheme string) string {
		c, ok := cr.RepComparisons[0][scheme]
		if !ok {
			return "-" // scheme not in this evaluation's subset
		}
		return fmt.Sprintf("%.3f", c.ThroughputNorm)
	}
	for _, cr := range ev.Combos {
		pct := "-"
		if cr.CCBestPct >= 0 {
			pct = fmt.Sprintf("%d%%", cr.CCBestPct)
		}
		rows = append(rows, []string{
			cr.Combo.Class, cr.Combo.Name,
			norm(cr, "L2S"), norm(cr, "CC(Best)"), pct, norm(cr, "DSR"), norm(cr, "SNUG"),
		})
	}
	return writeAligned(w, rows)
}

// WriteScaling renders a scaling-study series as an aligned table: one row
// per core count, one column per scheme, each cell the cross-class average
// at that width (mean ±95% CI when replicated).
func WriteScaling(w io.Writer, title string, s experiments.ScalingSeries) error {
	return writeTable(w, title, "cores", byCores(s))
}

// WriteScalingCSV renders the same dataset as CSV; replicated series gain a
// "<scheme>_ci95" half-width column per scheme.
func WriteScalingCSV(w io.Writer, s experiments.ScalingSeries) error {
	return writeCSV(w, "cores", byCores(s))
}

// byCores recasts a scaling series as a figure dataset whose row labels
// are the core counts, so both render through writeTable and writeCSV.
func byCores(s experiments.ScalingSeries) experiments.ClassSeries {
	cs := experiments.ClassSeries{Schemes: s.Schemes, Values: s.Values, CI: s.CI, Replicates: s.Replicates}
	for _, n := range s.Cores {
		cs.Classes = append(cs.Classes, strconv.Itoa(n))
	}
	return cs
}

// WriteCharacterization renders a Figures 1–3 dataset: bucket shares
// averaged over windows of sampling intervals (10 windows), ending with the
// whole-run mean — a textual rendering of the stacked-area figures.
func WriteCharacterization(w io.Writer, title string, c *stackdist.Characterization) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	n := c.Intervals()
	if n == 0 {
		_, err := fmt.Fprintln(w, "(no intervals)")
		return err
	}
	header := append([]string{"intervals"}, c.Labels...)
	rows := [][]string{header}
	windows := 10
	if n < windows {
		windows = n
	}
	for wi := 0; wi < windows; wi++ {
		from := wi * n / windows
		to := (wi + 1) * n / windows
		row := []string{fmt.Sprintf("%d-%d", from+1, to)}
		for j := 0; j < c.M; j++ {
			row = append(row, fmt.Sprintf("%5.1f%%", c.BucketOver[j].WindowMean(from, to)*100))
		}
		rows = append(rows, row)
	}
	mean := []string{"mean"}
	for _, v := range c.MeanBucketSizes() {
		mean = append(mean, fmt.Sprintf("%5.1f%%", v*100))
	}
	rows = append(rows, mean)
	return writeAligned(w, rows)
}

// WriteCharacterizationCSV emits the full per-interval series.
func WriteCharacterizationCSV(w io.Writer, c *stackdist.Characterization) error {
	if _, err := fmt.Fprintf(w, "interval,%s\n", strings.Join(c.Labels, ",")); err != nil {
		return err
	}
	for i := 0; i < c.Intervals(); i++ {
		vals := make([]string, c.M)
		for j := 0; j < c.M; j++ {
			vals[j] = fmt.Sprintf("%.4f", c.BucketOver[j].Values[i])
		}
		if _, err := fmt.Fprintf(w, "%d,%s\n", i+1, strings.Join(vals, ",")); err != nil {
			return err
		}
	}
	return nil
}

// ProgressLine renders a sweep progress snapshot as one log line, e.g.
// "sweep 12/63 (19%) elapsed 5s eta 21s — 4xammp/SNUG [8 restored]
// [1 failed]". Restored, failed and quarantined counts show when nonzero.
func ProgressLine(p sweep.Progress) string {
	var b strings.Builder
	pct := 0
	if p.Total > 0 {
		pct = 100 * p.Done / p.Total
	}
	fmt.Fprintf(&b, "sweep %d/%d (%d%%) elapsed %s", p.Done, p.Total, pct, p.Elapsed.Round(time.Second))
	if p.ETA > 0 {
		fmt.Fprintf(&b, " eta %s", p.ETA.Round(time.Second))
	}
	if p.Key != "" {
		fmt.Fprintf(&b, " — %s", p.Key)
	}
	if p.Restored > 0 {
		fmt.Fprintf(&b, " [%d restored]", p.Restored)
	}
	if p.Failed > 0 {
		fmt.Fprintf(&b, " [%d failed]", p.Failed)
	}
	if p.Quarantined > 0 {
		fmt.Fprintf(&b, " [%d quarantined]", p.Quarantined)
	}
	return b.String()
}

// writeAligned prints rows with columns padded to equal width.
func writeAligned(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
	}
	return nil
}
