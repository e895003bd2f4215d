package lint_test

import (
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"snug/internal/lint"
)

// wantRe extracts the quoted expectations from a // want comment.
var wantRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// loadCorpus loads testdata once for every test that checks it.
var loadCorpus = sync.OnceValues(func() ([]*lint.Package, error) {
	return lint.Load("testdata", "./...", "outside")
})

type wantKey struct {
	file string
	line int
}

// TestCorpus checks every file of testdata, so no fixture, the
// internal/stackdist scope fixture included, goes unchecked.
func TestCorpus(t *testing.T) {
	checkCorpus(t)
}

// TestMapOrder checks the maporder fixtures: flagged, collect-then-sort,
// annotated and out-of-module map ranges.
func TestMapOrder(t *testing.T) {
	checkCorpus(t, "internal/cache/maporder.go", "outside/maporder.go")
}

// TestWallClock checks the wallclock fixtures: flagged, annotated and
// out-of-module clock reads, posing as the sweep engine.
func TestWallClock(t *testing.T) {
	checkCorpus(t, "internal/sweep/wallclock.go", "outside/wallclock.go")
}

// TestSeedDiscipline checks the seeddiscipline fixtures: math/rand
// imports, constant and derived seeds, the exempt internal/stats and an
// out-of-module math/rand user.
func TestSeedDiscipline(t *testing.T) {
	checkCorpus(t, "internal/core/seeddiscipline.go", "internal/core/rand.go",
		"internal/stats/stats.go", "outside/rand.go")
}

// TestStaleAllow checks the directive audit beside maporder: a live
// allow, a stale one, an unknown check name, and a wallclock directive on
// a line without a clock read.
func TestStaleAllow(t *testing.T) {
	checkCorpus(t, "internal/cache/staleallow.go")
}

// TestStaleAllowWallclock checks the directive audit beside wallclock,
// posing as the sweep package: the retry-backoff annotation is live there,
// and the same directive stranded on a line without a clock read is stale.
func TestStaleAllowWallclock(t *testing.T) {
	checkCorpus(t, "internal/sweep/staleallow.go")
}

// checkCorpus loads testdata, a module that poses as module snug and
// requires the out-of-module package outside through a replace, runs
// lint.Check over every package, and matches the findings in the named
// files (paths relative to testdata; every file when none is named)
// against their expectations: a `// want "regexp"` comment at the end of
// a line asserts a finding on that line whose message matches the
// regexp, and several may follow one another (// want "a" "b"). A line
// without one asserts that it draws no finding, so a //snug:allow
// directive's suppression is checked too.
func checkCorpus(t *testing.T, files ...string) {
	t.Helper()
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	inScope := func(filename string) bool {
		rel, err := filepath.Rel(root, filename)
		return len(files) == 0 || err == nil && slices.Contains(files, filepath.ToSlash(rel))
	}
	pkgs, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	wants := map[wantKey][]*regexp.Regexp{}
	var diags []lint.Diagnostic
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, d := range lint.Check(pkg) {
			if inScope(d.Pos.Filename) {
				diags = append(diags, d)
			}
		}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if !inScope(name) {
				continue
			}
			rel, _ := filepath.Rel(root, name)
			seen[filepath.ToSlash(rel)] = true
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := wantKey{pos.Filename, pos.Line}
					for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx:], -1) {
						pat, err := strconv.Unquote(`"` + m[1] + `"`)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, m[0], err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						wants[key] = append(wants[key], re)
					}
				}
			}
		}
	}
	for _, f := range files {
		if !seen[f] {
			t.Fatalf("corpus file %s was not loaded", f)
		}
	}
	if len(wants) == 0 {
		t.Error("the checked files hold no // want comment")
	}
	for _, d := range diags {
		key := wantKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[key] {
			if re != nil && re.MatchString(d.Message) {
				wants[key][i] = nil // each expectation matches once
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected %s finding: %s", d.Pos, d.Check, d.Message)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			if re != nil {
				t.Errorf("%s:%d: expected a finding matching %q, got none", key.file, key.line, re)
			}
		}
	}
}
