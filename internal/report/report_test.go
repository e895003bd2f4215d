package report

import (
	"strings"
	"testing"
	"time"

	"snug/internal/experiments"
	"snug/internal/stackdist"
	"snug/internal/sweep"
)

func sampleSeries() experiments.ClassSeries {
	cs := experiments.ClassSeries{
		Schemes: experiments.FigureSchemes,
		Classes: []string{"C1", "AVG"},
		Values:  map[string][]float64{},
	}
	for i, s := range experiments.FigureSchemes {
		cs.Values[s] = []float64{1.0 + float64(i)/100, 1.0 + float64(i)/200}
	}
	return cs
}

func TestWriteFigure(t *testing.T) {
	var b strings.Builder
	if err := WriteFigure(&b, "Figure 9", sampleSeries()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 9", "C1", "AVG", "SNUG", "CC(Best)", "1.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteFigureCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteFigureCSV(&b, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows:\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "class,") {
		t.Errorf("CSV header %q", lines[0])
	}
}

func TestProgressLine(t *testing.T) {
	line := ProgressLine(sweep.Progress{
		Done: 12, Total: 63, Restored: 8, Failed: 2, Quarantined: 3, Key: "4xammp/SNUG",
		Elapsed: 5 * time.Second, ETA: 21 * time.Second,
	})
	for _, want := range []string{"12/63", "(19%)", "5s", "eta 21s", "4xammp/SNUG", "[8 restored]", "[2 failed]", "[3 quarantined]"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q missing %q", line, want)
		}
	}
	empty := ProgressLine(sweep.Progress{})
	if !strings.Contains(empty, "0/0") {
		t.Errorf("zero progress line %q", empty)
	}
	for _, absent := range []string{"restored", "failed", "quarantined"} {
		if strings.Contains(empty, absent) {
			t.Errorf("zero progress line %q shows %q", empty, absent)
		}
	}
}

func TestWriteCharacterization(t *testing.T) {
	c := stackdist.NewCharacterization(32, 8)
	for i := 0; i < 20; i++ {
		c.Add(stackdist.IntervalResult{
			BucketSizes: []float64{0.4, 0.1, 0, 0, 0, 0, 0, 0.5},
			MeanDemand:  17, TakerFraction: 0.5,
		})
	}
	var b strings.Builder
	if err := WriteCharacterization(&b, "Figure 1", c); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Figure 1", "1~4", ">=29", "mean", "40.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Empty characterization must not panic.
	var e strings.Builder
	if err := WriteCharacterization(&e, "x", stackdist.NewCharacterization(32, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestWriteCharacterizationCSV(t *testing.T) {
	c := stackdist.NewCharacterization(32, 8)
	c.Add(stackdist.IntervalResult{BucketSizes: make([]float64, 8)})
	var b strings.Builder
	if err := WriteCharacterizationCSV(&b, c); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(b.String()), "\n"); len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want 2", len(lines))
	}
}

// replicatedSeries is sampleSeries plus replicate spread.
func replicatedSeries() experiments.ClassSeries {
	cs := sampleSeries()
	cs.Replicates = 5
	cs.CI = map[string][]float64{}
	for _, s := range experiments.FigureSchemes {
		cs.CI[s] = []float64{0.013, 0.002}
	}
	return cs
}

// TestWriteFigureReplicated: replicated series render mean ±95% CI cells
// and declare the replicate count.
func TestWriteFigureReplicated(t *testing.T) {
	var b strings.Builder
	if err := WriteFigure(&b, "Figure 9", replicatedSeries()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"±95% CI over 5 replicates", "1.000 ±0.013", "±0.002"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteFigureCSVReplicated: replicated CSV gains a _ci95 column per
// scheme; single-replicate CSV stays column-identical to before.
func TestWriteFigureCSVReplicated(t *testing.T) {
	var b strings.Builder
	if err := WriteFigureCSV(&b, replicatedSeries()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if want := "class,L2S,L2S_ci95,CC(Best),CC(Best)_ci95,DSR,DSR_ci95,SNUG,SNUG_ci95"; lines[0] != want {
		t.Errorf("replicated CSV header %q, want %q", lines[0], want)
	}
	if !strings.Contains(lines[1], ",0.0130,") {
		t.Errorf("replicated CSV row missing half-width: %q", lines[1])
	}

	var s strings.Builder
	if err := WriteFigureCSV(&s, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	if header := strings.SplitN(s.String(), "\n", 2)[0]; strings.Contains(header, "ci95") {
		t.Errorf("single-replicate CSV header gained CI columns: %q", header)
	}
}

// TestWriteScalingReplicated covers the interval rendering of the scaling
// table and its CSV.
func TestWriteScalingReplicated(t *testing.T) {
	s := experiments.ClassSeries{
		Schemes:    []string{"SNUG"},
		Classes:    []string{"4", "8"},
		Values:     map[string][]float64{"SNUG": {1.05, 1.08}},
		CI:         map[string][]float64{"SNUG": {0.01, 0.02}},
		Replicates: 3,
	}
	var b strings.Builder
	if err := WriteScaling(&b, "Scaling", s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"over 3 replicates", "1.050 ±0.010", "1.080 ±0.020"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output missing %q:\n%s", want, b.String())
		}
	}
	var c strings.Builder
	if err := WriteScalingCSV(&c, s); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.String(), "cores,SNUG,SNUG_ci95\n") {
		t.Errorf("scaling CSV header wrong:\n%s", c.String())
	}
}
