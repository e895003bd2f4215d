package main

import (
	"bytes"
	"go/types"
	"sort"
	"strings"
	"testing"

	"snug/internal/lint"
)

// TestRepoIsClean is the self-gate: lint.Check must find nothing in any
// package of this module. Any new range-over-map, wall-clock read,
// undisciplined seed, or stale //snug:allow fails this test until it is
// fixed or carries a //snug:allow justification.
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

// reservedExports are exported names with no caller yet that open
// ROADMAP.md items will call: the stack-distance oracle reads
// Profiler.HitCount, and the epoch sampler the monitor's counters.
var reservedExports = []string{
	"snug/internal/stackdist.Profiler.HitCount",
	"snug/internal/core.Monitor.Counter",
	"snug/internal/core.Monitor.Stats",
	"snug/internal/core.SatCounter.Value",
}

// TestExportsHaveCallers keeps API that only tests reach out of the
// module: every exported function, method and type of a non-main package
// needs a use in non-test code, in this module or in perfbench/ (its own
// module, built against this checkout). lint.Load reads non-test files
// only, so a name that only _test.go files use has no use here; it
// belongs in a _test.go file of its package, or goes.
//
// A method reached only through an interface has no static use, so these
// are exempt: interface methods, methods of unexported types, and methods
// named like a method some module interface declares or like String,
// Error, Unwrap or Is. So are reservedExports, each of which must still
// exist and still have no use.
func TestExportsHaveCallers(t *testing.T) {
	var pkgs []*lint.Package
	for _, dir := range []string{"../..", "../../perfbench"} {
		loaded, err := lint.Load(dir, "./...")
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, loaded...)
	}

	used := make(map[string]bool)
	viaInterface := map[string]bool{"String": true, "Error": true, "Unwrap": true, "Is": true}
	declared := make(map[string]string) // key -> method name, "" for a func or type
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			switch obj.(type) {
			case *types.Func, *types.TypeName: // a field or variable of the same name is no use
				used[exportKey(obj)] = true
			}
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						viaInterface[it.ExplicitMethod(i).Name()] = true
					}
				}
			}
		}
		if pkg.Pkg.Name() == "main" {
			continue
		}
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, isType := obj.(*types.TypeName)
			if _, isFunc := obj.(*types.Func); obj.Exported() && (isType || isFunc) {
				declared[exportKey(obj)] = ""
			}
			if !isType || !obj.Exported() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					declared[exportKey(m)] = m.Name()
				}
			}
		}
	}

	reserved := make(map[string]bool)
	for _, name := range reservedExports {
		reserved[name] = true
		if _, ok := declared[name]; !ok {
			t.Errorf("reserved name %s is not declared any more: take it off reservedExports", name)
		} else if used[name] {
			t.Errorf("reserved name %s has a caller now: take it off reservedExports", name)
		}
	}
	var unused []string
	for name, method := range declared {
		if used[name] || reserved[name] || viaInterface[method] {
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported name(s) have no use outside _test.go files; "+
			"move each into a _test.go file or delete it:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// exportKey names a package-level object as "path.Name" and a method as
// "path.Type.Name", through a generic's origin, so that the same name
// loaded by two modules gets one key.
func exportKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
