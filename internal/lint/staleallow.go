package lint

import (
	"sort"
	"strings"
)

// StaleAllow audits the //snug:allow directives themselves. A directive is
// a standing exception to a static guarantee; one that no longer matches
// any diagnostic is not harmless noise — it silently pre-approves the next
// regression on its line. Two findings share this machinery:
//
//   - unknown check: the directive names no analyzer in the suite, so it
//     can never suppress anything (a typo like "wallclocks" leaves the
//     site unprotected while looking annotated);
//   - stale directive: the named check ran over this package and reported
//     nothing on the directive's lines, so the exception is dead.
//
// A directive naming a check that did not run this invocation (a
// single-analyzer test run) is skipped: absence of evidence is not
// staleness.
//
// StaleAllow must run after every other analyzer so directive usage is
// fully accounted; it is last in the Analyzers suite.
var StaleAllow = &Analyzer{
	Name: "staleallow",
	Doc:  "flags //snug:allow directives that name unknown checks or suppress nothing",
}

// Run is bound in an init function: runStaleAllow reaches the Analyzers
// registry through ByName, and a static assignment would form an
// initialization cycle with the suite slice that contains StaleAllow.
func init() { StaleAllow.Run = runStaleAllow }

func runStaleAllow(pass *Pass) error {
	pkg := pass.pkg
	for _, f := range pass.Files() {
		idx := pkg.allowIndex(pass.Fset, f)
		lines := make([]int, 0, len(idx))
		for line := range idx {
			lines = append(lines, line)
		}
		sort.Ints(lines)
		for _, line := range lines {
			for _, e := range idx[line] {
				switch {
				case ByName(e.name) == nil:
					pass.Reportf(e.pos, "unknown check %q in %s directive (known: %s); a misspelled name suppresses nothing", e.name, allowDirective, knownCheckList())
				case pkg.ran[e.name] && !e.used:
					pass.Reportf(e.pos, "stale %s %s: the %s check ran and reported nothing here; delete the directive so it cannot mask a future finding", allowDirective, e.name, e.name)
				}
			}
		}
	}
	return nil
}

// knownCheckList renders the valid //snug:allow targets for messages.
func knownCheckList() string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return strings.Join(names, " ")
}
