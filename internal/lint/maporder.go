package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over a map inside a result-affecting package.
// Go randomizes map iteration order per process, so any value, ordering or
// floating-point accumulation that depends on it diverges between runs and
// breaks the bit-identical contract (golden digest fb8ac38b40b7bdf7).
//
// Two escape hatches keep legitimate uses quiet:
//
//   - collect-then-sort: a loop that only feeds a slice which is passed to
//     sort.* / slices.Sort* later in the same function is order-insensitive
//     by construction and is not flagged;
//   - an explicit `//snug:allow maporder <why>` on the loop line for cases
//     the heuristic cannot see (e.g. commutative integer accumulation).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags range-over-map in result-affecting packages unless sorted or annotated",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	if !ResultAffecting[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkMapRanges(pass, fn.Body)
			return true
		})
	}
	return nil
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if sortedAfter(pass, body, rng) {
			return true
		}
		pass.Reportf(rng.For,
			"range over map %s in result-affecting package %s: iteration order is nondeterministic; sort the keys first or annotate the loop with %s maporder <why>",
			exprString(rng.X), pass.Pkg.Path(), allowDirective)
		return true
	})
}

// sortedAfter reports whether every slice the loop body appends to is
// sorted by a sort.*/slices.Sort* call positioned after the loop in the
// same function body — the canonical collect-then-sort idiom.
func sortedAfter(pass *Pass, body *ast.BlockStmt, rng *ast.RangeStmt) bool {
	// Collect the variables appended to inside the loop.
	appended := map[types.Object]bool{}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call.Fun, "append") || i >= len(asg.Lhs) {
				continue
			}
			if id, ok := asg.Lhs[i].(*ast.Ident); ok {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					appended[obj] = true
				}
			}
		}
		return true
	})
	if len(appended) == 0 {
		return false
	}
	// Every appended slice must reach a sort call after the loop ends.
	sorted := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass, call.Fun) || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				sorted[obj] = true
			}
		}
		return true
	})
	for obj := range appended {
		if !sorted[obj] {
			return false
		}
	}
	return true
}

// isSortCall reports whether fun is a selector into package sort or slices.
func isSortCall(pass *Pass, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.Info.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sort", "slices":
		return true
	}
	return false
}

// isBuiltin reports whether fun denotes the named predeclared function.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := pass.Info.ObjectOf(id).(*types.Builtin)
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
