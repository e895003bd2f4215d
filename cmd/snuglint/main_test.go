package main

import (
	"bytes"
	"testing"

	"snug/internal/lint"
)

// TestRepoIsClean is the self-gate: the analyzer suite must exit clean on
// this repository. Any new range-over-map, wall-clock read, undisciplined
// seed, or stale //snug:allow in a result-affecting package fails this
// test until it is fixed or carries a //snug:allow justification.
func TestRepoIsClean(t *testing.T) {
	var out bytes.Buffer
	diags, err := lint.Main(&out, []string{"snug/..."})
	if err != nil {
		t.Fatalf("snuglint: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("snuglint reported %d finding(s) on the repo:\n%s", len(diags), out.String())
	}
}
