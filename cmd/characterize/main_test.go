package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke characterizes a benchmark on a tiny interval budget and
// checks the table plus CSV output.
func TestRunSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "fig1.csv")
	var out bytes.Buffer
	err := run([]string{"-bench", "ammp", "-intervals", "5", "-accesses", "2000", "-csv", csv}, &out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 1", "ammp", "mean", "wrote"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 6 { // header + 5 intervals
		t.Errorf("CSV has %d lines, want 6", lines)
	}
}

// TestRunFlagErrors covers CLI error paths.
func TestRunFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"bad flag":        {"-nope"},
		"positional args": {"extra"},
		"bad benchmark":   {"-bench", "nope", "-intervals", "2", "-accesses", "100"},
		"zero intervals":  {"-intervals", "0"},
		"zero accesses":   {"-accesses", "0"},
		"-testscale":      {"-testscale=false"}, // the system choice is spelled -fullscale
	}
	for name, args := range cases {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run(%v) succeeded", name, args)
		}
	}
}
