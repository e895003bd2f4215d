// Package lint is snuglint: one static check, Check, that machine-verifies
// the determinism invariants the golden digests (internal/cmp/golden_test.go)
// only sample dynamically. Check applies three rules to every non-test file
// of every package of module snug, since every one of them either computes
// a result or prints one:
//
//   - maporder: flags `range` over a map — map iteration order is
//     randomized per process, so any result that depends on it breaks
//     bit-identical reproduction;
//   - wallclock: forbids wall-clock reads (time.Now / time.Since /
//     time.Sleep / timers); simulated time is the only clock results may
//     observe;
//   - seeddiscipline: every RNG must be stats.NewRNG with a seed derived
//     from data (sweep.JobSeed / stats.Mix64 / identity hashes) — constant
//     seeds and math/rand are errors. internal/stats, which defines the
//     RNG, is exempt.
//
// It then audits the //snug:allow directives themselves and reports, as
// staleallow, each one that names no check or suppressed nothing: a dead
// exception would silently mask a future regression at its site.
//
// # Annotation grammar
//
//	//snug:allow <check> [justification...]
//	    Trailing on a line, or alone on the line above: suppresses the
//	    named check's findings on that line. The justification is free
//	    text but conventionally states why the exception is sound (e.g.
//	    "progress/ETA only, never feeds results").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one reported finding.
type Diagnostic struct {
	Check   string // maporder, wallclock, seeddiscipline or staleallow
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Check, d.Message)
}

// Package is a type-checked package. Load fills it with the non-test files
// go list reports, so test files, which may use wall clocks, literal seeds
// and maps freely, are never checked.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// checks are the rules Check applies, and so the valid //snug:allow
// targets.
var checks = []string{"maporder", "wallclock", "seeddiscipline"}

// allowDirective is the suppression directive prefix.
const allowDirective = "//snug:allow"

// wallClockFuncs are the package time functions that observe or wait on
// the wall clock. Type references (time.Duration fields, time.Time in an
// API) are fine; only these calls are flagged.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// sortFuncs are the functions that sort their first argument in place.
var sortFuncs = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// allow is one //snug:allow directive.
type allow struct {
	check string
	line  int
	pos   token.Pos
	used  bool // it suppressed at least one finding
}

// checker holds Check's state for one file.
type checker struct {
	pkg    *Package
	decl   ast.Decl // the top-level declaration being walked
	allows []*allow
	diags  []Diagnostic
}

// Check applies maporder, wallclock and seeddiscipline to pkg, then
// reports each //snug:allow directive that names no check or suppressed
// nothing. Packages outside module snug draw no findings. The findings
// come sorted by position.
func Check(pkg *Package) []Diagnostic {
	path := pkg.Pkg.Path()
	if path != "snug" && !strings.HasPrefix(path, "snug/") {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		c := &checker{pkg: pkg, allows: directives(pkg.Fset, f)}
		for _, decl := range f.Decls {
			c.decl = decl
			ast.Inspect(decl, c.visit)
		}
		for _, a := range c.allows {
			var msg string
			switch {
			case !slices.Contains(checks, a.check):
				msg = fmt.Sprintf("unknown check %q in %s directive (known: %s); a misspelled name suppresses nothing",
					a.check, allowDirective, strings.Join(checks, " "))
			case !a.used:
				msg = fmt.Sprintf("stale %s %s: the %s check reported nothing here; delete the directive so it cannot mask a future finding",
					allowDirective, a.check, a.check)
			default:
				continue
			}
			c.diags = append(c.diags, Diagnostic{Check: "staleallow", Pos: pkg.Fset.Position(a.pos), Message: msg})
		}
		diags = append(diags, c.diags...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Check < diags[j].Check
	})
	return diags
}

// visit applies the three rules to node n of c.decl.
func (c *checker) visit(n ast.Node) bool {
	info, path := c.pkg.Info, c.pkg.Pkg.Path()
	seeded := path != "snug/internal/stats"
	switch n := n.(type) {
	case *ast.RangeStmt:
		// maporder: a loop that only collects into slices sorted after it
		// is order-insensitive by construction.
		if t := info.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap && !sortedAfter(info, c.decl, n) {
				c.report("maporder", n.For,
					"range over map %s in %s: iteration order is nondeterministic; sort the keys first or annotate the loop with %s maporder <why>",
					exprString(n.X), path, allowDirective)
			}
		}
	case *ast.ImportSpec:
		// seeddiscipline: math/rand's generators and global state are not
		// part of the reproducibility contract, and its algorithm may
		// change across Go releases.
		if p, err := strconv.Unquote(n.Path.Value); err == nil && seeded && (p == "math/rand" || p == "math/rand/v2") {
			c.report("seeddiscipline", n.Pos(),
				"import of %s in non-test code: simulator randomness must come from stats.NewRNG seeded via sweep.JobSeed/stats.Mix64", p)
		}
	case *ast.CallExpr:
		pkgPath, name := callee(info, n)
		switch {
		case pkgPath == "time" && wallClockFuncs[name]:
			c.report("wallclock", n.Pos(),
				"wall-clock read time.%s in %s: simulated time is the only clock results may observe; annotate progress/ETA-only uses with %s wallclock <why>",
				name, path, allowDirective)
		case seeded && pkgPath == "snug/internal/stats" && name == "NewRNG" && len(n.Args) == 1:
			// A literal seed hardwires one stream instead of deriving it
			// from the job's identity, silently unpairing comparisons.
			if v := info.Types[n.Args[0]].Value; v != nil {
				c.report("seeddiscipline", n.Pos(),
					"stats.NewRNG with constant seed %s: seeds must data-flow from job identity (sweep.JobSeed, stats.Mix64, config seeds), never a literal",
					v)
			}
		}
	}
	return true
}

// report records a finding at pos, unless a //snug:allow directive for
// check covers the line (the same line, or alone on the line above): then
// the finding is dropped and the directive marked used.
func (c *checker) report(check string, pos token.Pos, format string, args ...any) {
	p := c.pkg.Fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, a := range c.allows {
			if a.check == check && a.line == line {
				a.used = true
				return
			}
		}
	}
	c.diags = append(c.diags, Diagnostic{Check: check, Pos: p, Message: fmt.Sprintf(format, args...)})
}

// directives returns f's //snug:allow directives in source order.
func directives(fset *token.FileSet, f *ast.File) []*allow {
	var out []*allow
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			rest, ok := strings.CutPrefix(cm.Text, allowDirective)
			if fields := strings.Fields(rest); ok && len(fields) > 0 {
				out = append(out, &allow{check: fields[0], line: fset.Position(cm.Pos()).Line, pos: cm.Pos()})
			}
		}
	}
	return out
}

// callee returns the package path and name of the package-level function
// a call selects (time.Now, stats.NewRNG), or "" if it selects none. A
// method is not one: t.After(u) on two time.Time values reads no clock.
func callee(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// sortedAfter reports whether rng's body is made only of appends to
// slices that one of sortFuncs sorts after the loop, within scope: the
// collect-then-sort idiom.
func sortedAfter(info *types.Info, scope ast.Node, rng *ast.RangeStmt) bool {
	var appended []types.Object
	for _, st := range rng.Body.List {
		asg, ok := st.(*ast.AssignStmt)
		if !ok || len(asg.Lhs) != len(asg.Rhs) {
			return false
		}
		for i, rhs := range asg.Rhs {
			call, isCall := rhs.(*ast.CallExpr)
			id, isIdent := asg.Lhs[i].(*ast.Ident)
			if !isCall || !isIdent || !isBuiltin(info, call.Fun, "append") {
				return false
			}
			appended = append(appended, info.ObjectOf(id))
		}
	}
	if len(appended) == 0 {
		return false
	}
	var sorted []types.Object
	ast.Inspect(scope, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		if pkgPath, name := callee(info, call); sortFuncs[pkgPath+"."+name] {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				sorted = append(sorted, info.ObjectOf(id))
			}
		}
		return true
	})
	for _, obj := range appended {
		if obj == nil || !slices.Contains(sorted, obj) {
			return false
		}
	}
	return true
}

// isBuiltin reports whether fun denotes the named predeclared function.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := info.ObjectOf(id).(*types.Builtin)
	return isB
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	}
	return "expression"
}
