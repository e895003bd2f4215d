// Package lint is the snuglint analyzer suite: a set of static checks
// that machine-verify the determinism and hot-path invariants the golden
// digest (internal/cmp/golden_test.go) only samples dynamically.
//
// The suite is built on a deliberately small reimplementation of the
// golang.org/x/tools/go/analysis surface (Analyzer / Pass / Diagnostic)
// because this module carries no external dependencies: everything here is
// standard library only. The API mirrors go/analysis closely enough that
// the analyzers could be ported to x/tools by swapping the framework types.
//
// Six AST analyzers ship today:
//
//   - maporder: flags `range` over a map in a result-affecting package —
//     map iteration order is randomized per process, so any result that
//     depends on it breaks bit-identical reproduction.
//   - wallclock: forbids wall-clock reads (time.Now / time.Since /
//     time.Sleep / timers) in result-affecting packages; simulated time is
//     the only clock results may observe.
//   - seeddiscipline: every RNG must be stats.NewRNG with a seed derived
//     from data (sweep.JobSeed / stats.Mix64 / identity hashes) — constant
//     literal seeds and math/rand are errors in non-test code.
//   - hotalloc: functions annotated //snug:hotpath must not allocate
//     (append / make / new / map writes / capturing closures), locking in
//     the allocs-per-run wins measured by cmd/bench.
//   - hotdispatch: //snug:hotpath bodies must not pay dynamic-dispatch or
//     conversion taxes: interface method calls, defer, and string↔[]byte
//     conversions are flagged.
//   - staleallow: every //snug:allow directive must name a known check and
//     actually suppress something — a directive whose named analyzer ran
//     but reported nothing on its lines is dead weight that would silently
//     mask a future regression at that site.
//
// Alongside the AST suite, the gcdiag subsystem (gcdiag.go) verifies the
// compiler's half of the hot-path bargain: it parses `go build`
// escape-analysis, inlining and bounds-check diagnostics and checks them
// against //snug:hotpath (checks gcescape, gcbounds) and //snug:inline
// (check gcinline) contracts.
//
// # Annotation grammar
//
//	//snug:hotpath
//	    In a function's doc comment: the function body is subject to the
//	    hotalloc and hotdispatch analyzers, and — under the compiler
//	    contract (cmd/snuglint -compiler) — must compile with zero heap
//	    escapes (gcescape) and zero bounds checks (gcbounds).
//
//	//snug:inline
//	    In a function's doc comment: under the compiler contract the
//	    function must be provably inlinable ("can inline" in -m=2 output);
//	    a "cannot inline" decision is a gcinline finding.
//
//	//snug:allow <check> [justification...]
//	    Trailing on a line, or alone on the line above: suppresses the
//	    named check's diagnostics on that line. The justification is
//	    free text but conventionally states why the exception is sound
//	    (e.g. "progress/ETA only, never feeds results"). Valid names are
//	    the AST analyzers plus the compiler-contract checks (gcescape,
//	    gcbounds, gcinline); an unknown name, or a directive that
//	    suppresses nothing, is itself a staleallow diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors analysis.Analyzer.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Allowed marks a finding suppressed by a //snug:allow directive;
	// Justification carries the directive's free-text rationale. Allowed
	// findings never fail a run but are reported in -json output so
	// downstream tooling sees the full allow-state.
	Allowed       bool
	Justification string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is a type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File // all parsed files, including _test.go in test variants
	Pkg   *types.Package
	Info  *types.Info

	// Suppressed accumulates the findings //snug:allow directives absorbed,
	// across every analyzer and compiler-contract check run on the package.
	Suppressed []Diagnostic

	allows map[*ast.File]map[int][]*allowEntry // line -> directives on it
	ran    map[string]bool                     // checks that have run here
}

// allowEntry is one parsed //snug:allow directive occurrence.
type allowEntry struct {
	name          string // the named check
	justification string
	pos           token.Pos // position of the directive comment
	used          bool      // directive suppressed at least one finding
}

// markRan records that the named check has run over this package — the
// staleallow analyzer only judges directives whose check actually ran.
func (pkg *Package) markRan(names ...string) {
	if pkg.ran == nil {
		pkg.ran = make(map[string]bool)
	}
	for _, n := range names {
		pkg.ran[n] = true
	}
}

// Pass carries one analyzer's view of one package. It mirrors
// analysis.Pass; Report applies //snug:allow suppression before recording.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *types.Package
	Info     *types.Info

	pkg   *Package
	diags *[]Diagnostic
}

// Files returns the package's non-test files — the only files the suite
// analyzes. Test files may use wall clocks, literal seeds and maps freely.
func (p *Pass) Files() []*ast.File {
	var out []*ast.File
	for _, f := range p.pkg.Files {
		name := p.Fset.Position(f.Package).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Reportf records a diagnostic at pos. If a //snug:allow directive for
// this analyzer covers the line (same line, or the whole line above), the
// finding lands in the package's Suppressed list instead, with the
// directive marked used.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.pkg.report(p.Fset, p.Analyzer.Name, pos, fmt.Sprintf(format, args...), p.diags)
}

// report is the shared diagnostic sink behind Pass.Reportf and the
// compiler-contract checker: it applies //snug:allow suppression, tracks
// directive usage, and routes the finding to diags or pkg.Suppressed.
func (pkg *Package) report(fset *token.FileSet, analyzer string, pos token.Pos, msg string, diags *[]Diagnostic) {
	pkg.reportAt(fset, analyzer, pos, fset.Position(pos), msg, diags)
}

// reportAt is report with the rendered position decoupled from the allow
// lookup position — the compiler-contract checker resolves allows at the
// line start but renders the compiler's own column.
func (pkg *Package) reportAt(fset *token.FileSet, analyzer string, pos token.Pos, rendered token.Position, msg string, diags *[]Diagnostic) {
	d := Diagnostic{Analyzer: analyzer, Pos: rendered, Message: msg}
	if e := pkg.allowedAt(fset, pos, analyzer); e != nil {
		e.used = true
		d.Allowed = true
		d.Justification = e.justification
		pkg.Suppressed = append(pkg.Suppressed, d)
		return
	}
	*diags = append(*diags, d)
}

// TypeOf returns the type of expr, or nil if unknown.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	if t, ok := p.Info.Types[expr]; ok {
		return t.Type
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ResultAffecting is the set of packages whose computation feeds simulation
// results — the packages where a stray map iteration or wall-clock read
// silently breaks the bit-identical contract. DESIGN.md §"Statically-checked
// invariants" documents how to extend it.
var ResultAffecting = map[string]bool{
	"snug/internal/cache":       true,
	"snug/internal/cpu":         true,
	"snug/internal/bus":         true,
	"snug/internal/cmp":         true,
	"snug/internal/core":        true,
	"snug/internal/mem":         true,
	"snug/internal/schemes":     true,
	"snug/internal/sweep":       true,
	"snug/internal/experiments": true,
	"snug/internal/trace":       true,
	"snug/internal/metrics":     true,
	"snug/internal/workloads":   true,
}

// resultAffectingPath reports whether the import path is result-affecting.
// Vet invokes analyzers on test variants with decorated import paths
// ("p [p.test]"); the base path decides.
func resultAffectingPath(path string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return ResultAffecting[path]
}

// modulePath reports whether path belongs to this module's non-vendored
// code (the scope of seeddiscipline).
func modulePath(path string) bool {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		path = path[:i]
	}
	return path == "snug" || strings.HasPrefix(path, "snug/")
}

// Analyzers is the full suite in execution order. StaleAllow must run
// last: it judges the //snug:allow directives every earlier analyzer (and,
// in -compiler runs, the gcdiag checker) had a chance to consume.
var Analyzers = []*Analyzer{
	MapOrder,
	WallClock,
	SeedDiscipline,
	HotAlloc,
	HotDispatch,
	StaleAllow,
}

// CompilerChecks are the compiler-contract check names the gcdiag
// subsystem reports under. They are valid //snug:allow targets but are not
// AST analyzers; cmd/snuglint runs them only with -compiler.
var CompilerChecks = []string{CheckEscape, CheckBounds, CheckInline}

// KnownCheck reports whether name is a valid //snug:allow target: an AST
// analyzer or a compiler-contract check.
func KnownCheck(name string) bool {
	if ByName(name) != nil {
		return true
	}
	for _, c := range CompilerChecks {
		if c == name {
			return true
		}
	}
	return false
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to one package and returns the surviving
// diagnostics sorted by position. Suppressed findings accumulate on
// pkg.Suppressed.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pkg.markRan(a.Name)
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			pkg:      pkg,
			diags:    &diags,
		}
		if err := a.Run(pass); err != nil {
			return diags, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
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
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// allowDirective is the suppression directive prefix; hotpathDirective
// marks a function for the hotalloc/hotdispatch analyzers and the
// gcescape/gcbounds compiler contract; inlineDirective marks a function
// for the gcinline compiler contract.
const (
	allowDirective   = "//snug:allow"
	hotpathDirective = "//snug:hotpath"
	inlineDirective  = "//snug:inline"
)

// allowedAt returns the //snug:allow directive for analyzer covering pos,
// or nil: a directive suppresses its own line and the line directly below
// it (so it can trail the offending statement or sit alone above it).
func (pkg *Package) allowedAt(fset *token.FileSet, pos token.Pos, analyzer string) *allowEntry {
	file := fileOf(pkg, pos)
	if file == nil {
		return nil
	}
	idx := pkg.allowIndex(fset, file)
	line := fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, e := range idx[l] {
			if e.name == analyzer {
				return e
			}
		}
	}
	return nil
}

// allowIndex returns the file's line-indexed //snug:allow directives,
// building and caching the index on first use.
func (pkg *Package) allowIndex(fset *token.FileSet, file *ast.File) map[int][]*allowEntry {
	if pkg.allows == nil {
		pkg.allows = make(map[*ast.File]map[int][]*allowEntry)
	}
	idx, ok := pkg.allows[file]
	if !ok {
		idx = buildAllowIndex(fset, file)
		pkg.allows[file] = idx
	}
	return idx
}

func fileOf(pkg *Package, pos token.Pos) *ast.File {
	for _, f := range pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

func buildAllowIndex(fset *token.FileSet, f *ast.File) map[int][]*allowEntry {
	idx := make(map[int][]*allowEntry)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, allowDirective)
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			idx[line] = append(idx[line], &allowEntry{
				name:          fields[0],
				justification: strings.Join(fields[1:], " "),
				pos:           c.Pos(),
			})
		}
	}
	return idx
}

// isHotPath reports whether a function declaration carries the
// //snug:hotpath directive in its doc comment.
func isHotPath(fn *ast.FuncDecl) bool { return hasDirective(fn, hotpathDirective) }

// wantsInline reports whether a function declaration carries the
// //snug:inline directive in its doc comment.
func wantsInline(fn *ast.FuncDecl) bool { return hasDirective(fn, inlineDirective) }

// hasDirective reports whether fn's doc comment carries the directive.
func hasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
