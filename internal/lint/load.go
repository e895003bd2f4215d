package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Load type-checks the packages matching patterns (e.g. "./...") in the
// module rooted at dir and returns a Package for each matched
// (non-dependency) package.
//
// The loader is standard-library only: package metadata comes from
// `go list -e -json -deps`, and the whole dependency closure — standard
// library included — is type-checked from source with go/types. That is
// slower than reading compiler export data but needs no installed
// artifacts and no external packages-loading library, which keeps the
// module dependency-free. CGO is disabled so every package resolves to
// its pure-Go file set, and GOPROXY is off: the loader reads what is on
// disk and never downloads a module.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, order, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:  token.NewFileSet(),
		metas: metas,
		done:  make(map[string]*checkedPkg),
	}
	var out []*Package
	for _, path := range order {
		m := metas[path]
		if m.DepOnly || m.Standard {
			continue
		}
		c := ld.check(path)
		if c.err != nil {
			return nil, fmt.Errorf("%s: %v", path, c.err)
		}
		out = append(out, c.pkg)
	}
	return out, nil
}

type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList shells out to the go tool for build-tag-resolved package
// metadata. The returned order lists dependencies before dependents.
func goList(dir string, patterns []string) (map[string]*listPkg, []string, error) {
	args := append([]string{"list", "-e", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOPROXY=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v", err)
	}
	metas := make(map[string]*listPkg)
	var order []string
	dec := json.NewDecoder(outPipe)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		metas[p.ImportPath] = &p
		order = append(order, p.ImportPath)
	}
	if err := cmd.Wait(); err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	return metas, order, nil
}

type checkedPkg struct {
	pkg *Package // populated for module packages only
	tp  *types.Package
	err error
}

type loader struct {
	fset  *token.FileSet
	metas map[string]*listPkg
	done  map[string]*checkedPkg
}

// check type-checks one package (memoized), recursively checking its
// imports first. Go's import graph is acyclic, so plain recursion is safe.
func (ld *loader) check(path string) *checkedPkg {
	if c, ok := ld.done[path]; ok {
		return c
	}
	c := &checkedPkg{}
	ld.done[path] = c
	if path == "unsafe" {
		c.tp = types.Unsafe
		return c
	}
	m, ok := ld.metas[path]
	if !ok {
		c.err = fmt.Errorf("package %s not in go list output", path)
		return c
	}
	if m.Error != nil {
		c.err = fmt.Errorf("go list: %s", m.Error.Err)
		return c
	}
	target := !m.Standard && !m.DepOnly
	mode := parser.SkipObjectResolution
	if target {
		mode |= parser.ParseComments
	}
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(m.Dir, name), nil, mode)
		if err != nil {
			c.err = err
			return c
		}
		files = append(files, f)
	}
	imp := importerFunc(func(ipath string) (*types.Package, error) {
		if mapped, ok := m.ImportMap[ipath]; ok {
			ipath = mapped
		}
		dep := ld.check(ipath)
		if dep.err != nil {
			return nil, fmt.Errorf("import %s: %v", ipath, dep.err)
		}
		return dep.tp, nil
	})
	var info *types.Info
	if target {
		info = newTypesInfo()
	}
	cfg := &types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if c.err == nil {
				c.err = err
			}
		},
	}
	tp, err := cfg.Check(path, ld.fset, files, info)
	if c.err == nil && err != nil {
		c.err = err
	}
	c.tp = tp
	if target {
		c.pkg = &Package{Fset: ld.fset, Files: files, Pkg: tp, Info: info}
	}
	return c
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Main is the standalone snuglint entry point: it loads the packages
// matching patterns (default ./...) relative to the working directory,
// checks each, and writes every finding to w with its path relative to
// the working directory. It returns the findings; the caller decides the
// exit code.
func Main(w io.Writer, patterns []string) ([]Diagnostic, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, Check(pkg)...)
	}
	for _, d := range all {
		if rel, err := filepath.Rel(dir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(w, d)
	}
	return all, nil
}
