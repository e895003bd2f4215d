package lint_test

import (
	"testing"

	"snug/internal/lint"
	"snug/internal/lint/linttest"
)

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, "testdata/hotalloc", lint.HotAlloc, "hot")
}

func TestAnalyzerRegistry(t *testing.T) {
	want := []string{"maporder", "wallclock", "seeddiscipline", "hotalloc", "hotdispatch", "staleallow"}
	if len(lint.Analyzers) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(lint.Analyzers), len(want))
	}
	for i, name := range want {
		if lint.Analyzers[i].Name != name {
			t.Errorf("Analyzers[%d] = %s, want %s", i, lint.Analyzers[i].Name, name)
		}
		if lint.ByName(name) != lint.Analyzers[i] {
			t.Errorf("ByName(%q) did not return the suite analyzer", name)
		}
		if !lint.KnownCheck(name) {
			t.Errorf("KnownCheck(%q) = false for a suite analyzer", name)
		}
	}
	if lint.Analyzers[len(lint.Analyzers)-1] != lint.StaleAllow {
		t.Errorf("staleallow must run last so directive usage is fully accounted")
	}
	for _, name := range []string{"gcescape", "gcbounds", "gcinline"} {
		if !lint.KnownCheck(name) {
			t.Errorf("KnownCheck(%q) = false for a compiler-contract check", name)
		}
		if lint.ByName(name) != nil {
			t.Errorf("ByName(%q) = non-nil; compiler checks are not AST analyzers", name)
		}
	}
	if lint.ByName("nope") != nil {
		t.Errorf("ByName(nope) = %v, want nil", lint.ByName("nope"))
	}
	if lint.KnownCheck("nope") {
		t.Errorf("KnownCheck(nope) = true, want false")
	}
}
