package lint_test

import (
	"testing"

	"snug/internal/lint"
	"snug/internal/lint/linttest"
)

// TestStaleAllow runs maporder and staleallow in one pass, as the suite
// does: staleallow only judges directives whose named check ran alongside
// it, so the two must share the usage accounting of a single lint.Run.
func TestStaleAllow(t *testing.T) {
	linttest.RunAnalyzers(t, "testdata/staleallow",
		[]*lint.Analyzer{lint.MapOrder, lint.StaleAllow}, "snug/internal/cache")
}

// TestStaleAllowWallclock pairs staleallow with wallclock over a fixture
// posing as the result-affecting sweep package: the sweep engine's
// retry-backoff annotation is live there, and the same directive stranded
// on a line without a clock read is stale.
func TestStaleAllowWallclock(t *testing.T) {
	linttest.RunAnalyzers(t, "testdata/staleallow",
		[]*lint.Analyzer{lint.WallClock, lint.StaleAllow}, "snug/internal/sweep")
}
