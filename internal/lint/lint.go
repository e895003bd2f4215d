// Package lint is the snuglint analyzer suite: a set of static checks
// that machine-verify the determinism invariants the golden digest
// (internal/cmp/golden_test.go) only samples dynamically.
//
// The suite is built on a deliberately small reimplementation of the
// golang.org/x/tools/go/analysis surface (Analyzer / Pass / Diagnostic)
// because this module carries no external dependencies: everything here is
// standard library only. The API mirrors go/analysis closely enough that
// the analyzers could be ported to x/tools by swapping the framework types.
//
// Four AST analyzers ship today:
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
//   - staleallow: every //snug:allow directive must name a known check and
//     actually suppress something — a directive whose named analyzer ran
//     but reported nothing on its lines is dead weight that would silently
//     mask a future regression at that site.
//
// # Annotation grammar
//
//	//snug:allow <check> [justification...]
//	    Trailing on a line, or alone on the line above: suppresses the
//	    named analyzer's diagnostics on that line. The justification is
//	    free text but conventionally states why the exception is sound
//	    (e.g. "progress/ETA only, never feeds results"). An unknown name,
//	    or a directive that suppresses nothing, is itself a staleallow
//	    diagnostic.
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
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Package is a type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	allows map[*ast.File]map[int][]*allowEntry // line -> directives on it
	ran    map[string]bool                     // checks that have run here
}

// allowEntry is one parsed //snug:allow directive occurrence.
type allowEntry struct {
	name string    // the named check
	pos  token.Pos // position of the directive comment
	used bool      // directive suppressed at least one finding
}

// Pass carries one analyzer's view of one package. It mirrors
// analysis.Pass; Reportf applies //snug:allow suppression before recording.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *types.Package
	Info     *types.Info

	pkg   *Package
	diags *[]Diagnostic
}

// Files returns the package's files. Load reads only the non-test files
// go list reports, so test files, which may use wall clocks, literal seeds
// and maps freely, are never analyzed.
func (p *Pass) Files() []*ast.File { return p.pkg.Files }

// Reportf records a diagnostic at pos, unless a //snug:allow directive for
// this analyzer covers the line (same line, or the whole line above): then
// the finding is dropped and the directive marked used.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if e := p.pkg.allowedAt(p.Fset, pos, p.Analyzer.Name); e != nil {
		e.used = true
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
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
	"snug/internal/chunklog":    true,
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

// modulePath reports whether path belongs to this module's non-vendored
// code (the scope of seeddiscipline).
func modulePath(path string) bool {
	return path == "snug" || strings.HasPrefix(path, "snug/")
}

// Analyzers is the full suite in execution order. StaleAllow must run
// last: it judges the //snug:allow directives every earlier analyzer had
// a chance to consume.
var Analyzers = []*Analyzer{
	MapOrder,
	WallClock,
	SeedDiscipline,
	StaleAllow,
}

// ByName returns the analyzer with the given name, or nil. The names are
// also the valid //snug:allow targets.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to one package and returns the surviving
// diagnostics sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if pkg.ran == nil {
		pkg.ran = make(map[string]bool)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		// staleallow only judges directives whose check actually ran.
		pkg.ran[a.Name] = true
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

// allowDirective is the suppression directive prefix.
const allowDirective = "//snug:allow"

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
			idx[line] = append(idx[line], &allowEntry{name: fields[0], pos: c.Pos()})
		}
	}
	return idx
}
