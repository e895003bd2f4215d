package lint

import (
	"go/ast"
)

// WallClock forbids wall-clock observation in result-affecting packages.
// The simulator's only clock is the simulated cycle counter; a time.Now()
// that leaks into a result, a seed or a control decision makes runs
// irreproducible in a way no golden digest over one config can reliably
// catch. Progress/ETA reporting is the one legitimate use and must carry
// `//snug:allow wallclock <why>` (see internal/sweep.Run, whose elapsed
// time feeds only the Progress callback — pinned by
// TestElapsedNeverFeedsResults).
//
// Type references (time.Duration fields, time.Time in an API) are fine;
// only calls that read or wait on the wall clock are flagged.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids time.Now/Since/Sleep and timers in result-affecting packages",
	Run:  runWallClock,
}

// wallClockFuncs are the package time functions that observe or wait on
// the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runWallClock(pass *Pass) error {
	if !ResultAffecting[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			obj := pass.Info.ObjectOf(sel.Sel)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
				return true
			}
			pass.Reportf(call.Pos(),
				"wall-clock read time.%s in result-affecting package %s: simulated time is the only clock results may observe; annotate progress/ETA-only uses with %s wallclock <why>",
				sel.Sel.Name, pass.Pkg.Path(), allowDirective)
			return true
		})
	}
	return nil
}
