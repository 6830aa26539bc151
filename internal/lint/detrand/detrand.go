// Package detrand guards the byte-equality determinism contract of the
// repository's computational core (PR 2, determinism_test.go): the same
// input must produce the identical output — bit for bit — for every
// worker count and every run. Three sources of silent nondeterminism
// are banned in the deterministic packages:
//
//  1. wall-clock reads (time.Now, time.Since, time.Until);
//  2. the process-global math/rand generators, whose streams are not
//     replayable from a caller-owned seed (constructors such as
//     rand.New and rand.NewSource remain allowed — they are how seeded
//     sources are built);
//  3. map iteration whose order can leak into a function's results:
//     a range over a map whose body returns a value derived from the
//     iteration, accumulates floating-point values (float addition is
//     not associative, so the low bits depend on visit order), or
//     appends to a returned slice that is never sorted afterwards.
//
// A range statement may be suppressed with an "anonylint:map-ordered"
// comment on its line when order-independence holds for a reason the
// analyzer cannot see; the comment is the reviewable claim. Likewise a
// wall-clock read may carry "anonylint:wall-clock" when the time
// feeds measurement only (latency histograms, progress logs) and never
// an output the determinism contract covers.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spatialanon/internal/lint/analysis"
)

// Deterministic is the set of packages under the byte-equality
// contract — the anonymization algorithms, their indexes, the
// evaluation metrics, the data generators, the seeded-randomness
// provider itself and the independent auditor, whose error witnesses
// must not depend on map order. The multichecker scopes the analyzer with it.
var Deterministic = map[string]bool{
	"spatialanon/internal/core":      true,
	"spatialanon/internal/rplustree": true,
	"spatialanon/internal/mondrian":  true,
	"spatialanon/internal/compact":   true,
	"spatialanon/internal/quality":   true,
	"spatialanon/internal/query":     true,
	"spatialanon/internal/sfc":       true,
	"spatialanon/internal/routing":   true,
	"spatialanon/internal/bptree":    true,
	"spatialanon/internal/quadtree":  true,
	"spatialanon/internal/gridfile":  true,
	"spatialanon/internal/dataset":   true,
	"spatialanon/internal/detrng":    true,
	"spatialanon/internal/retry":     true,
	"spatialanon/internal/wal":       true,
	"spatialanon/internal/serve":     true,
	"spatialanon/internal/shard":     true,
	"spatialanon/internal/fault":     true,
	"spatialanon/internal/pager":     true,
	"spatialanon/internal/verify":    true,
}

// Analyzer flags the three nondeterminism sources. It carries no
// package filter itself — fixtures and the multichecker decide where
// it applies.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "flag wall-clock reads, global math/rand use and order-leaking map iteration\n\n" +
		"The deterministic packages promise byte-identical outputs for\n" +
		"every worker count and every run (determinism_test.go). This\n" +
		"analyzer bans the three ways that promise silently breaks:\n" +
		"time.Now and friends, the global math/rand functions, and map\n" +
		"ranges whose iteration order can reach returned values.",
	Run: run,
}

// clockFuncs are the "time" package functions that read the wall clock.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// WallClockOK marks a line whose wall-clock read feeds measurement
// only — latency recording, progress reporting — and never a value
// under the byte-equality contract. The justification after the
// marker is the reviewable claim.
const WallClockOK = "anonylint:wall-clock"

func run(pass *analysis.Pass) error {
	suppressed := pass.CommentLines("anonylint:map-ordered")
	clockOK := pass.CommentLines(WallClockOK)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCalls(pass, fd.Body, clockOK[f])
			checkMapRanges(pass, fd, suppressed[f])
		}
	}
	return nil
}

// checkCalls flags wall-clock and global-rand calls.
func checkCalls(pass *analysis.Pass, body *ast.BlockStmt, clockOK map[int]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch {
		case clockFuncs[name] && pass.IsPkgName(sel.X, "time"):
			if clockOK[pass.Fset.Position(call.Pos()).Line] {
				break
			}
			pass.Reportf(call.Pos(),
				"detrand: time.%s reads the wall clock in a deterministic package; thread timings through the caller", name)
		case (pass.IsPkgName(sel.X, "math/rand") || pass.IsPkgName(sel.X, "math/rand/v2")) &&
			!strings.HasPrefix(name, "New"):
			pass.Reportf(call.Pos(),
				"detrand: global math/rand function rand.%s is not replayable from a seed; inject a seeded *rand.Rand (detrng.New)", name)
		}
		return true
	})
}

// checkMapRanges flags map iteration whose order can reach the
// enclosing function's results.
func checkMapRanges(pass *analysis.Pass, fd *ast.FuncDecl, suppressed map[int]bool) {
	// Objects of named results and of identifiers appearing in return
	// statements: the function's "output variables".
	outputs := make(map[types.Object]bool)
	var returns []*ast.ReturnStmt
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					outputs[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			returns = append(returns, ret)
			for _, res := range ret.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						outputs[obj] = true
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if suppressed[pass.Fset.Position(rng.Pos()).Line] {
			return true
		}
		rangeVars := rangeVarObjects(pass, rng)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.ReturnStmt:
				if returnUsesLoopState(pass, s, rangeVars) {
					pass.Reportf(s.Pos(),
						"detrand: return inside map iteration depends on visit order; iterate sorted keys so the reported value is deterministic")
				}
			case *ast.AssignStmt:
				checkAccumulation(pass, fd, rng, s, outputs)
			}
			return true
		})
		return true
	})
}

// rangeVarObjects returns the objects bound by the range clause.
func rangeVarObjects(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// returnUsesLoopState reports whether a return statement's results
// mention a range variable — the signature of an order-dependent
// "first match wins" report. Returns of constants (existence checks)
// are order-independent and pass.
func returnUsesLoopState(pass *analysis.Pass, ret *ast.ReturnStmt, rangeVars map[types.Object]bool) bool {
	uses := false
	for _, res := range ret.Results {
		ast.Inspect(res, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && rangeVars[obj] {
					uses = true
				}
			}
			return !uses
		})
	}
	return uses
}

// checkAccumulation flags float op-assignment and unsorted appends to
// output slices inside the map range body.
func checkAccumulation(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, s *ast.AssignStmt, outputs map[types.Object]bool) {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(s.Lhs) == 1 && isFloat(pass.TypesInfo.TypeOf(s.Lhs[0])) {
			pass.Reportf(s.Pos(),
				"detrand: floating-point accumulation in map iteration order; float addition is not associative — iterate sorted keys")
		}
	case token.ASSIGN, token.DEFINE:
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pass, call) {
				continue
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil {
				obj = pass.TypesInfo.Defs[id]
			}
			if obj == nil || !outputs[obj] {
				continue
			}
			if !sortedAfter(pass, fd, rng, obj) {
				pass.Reportf(s.Pos(),
					"detrand: append to returned slice %s in map iteration order with no sort before return; sort it or iterate sorted keys", id.Name)
			}
		}
	}
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sortedAfter reports whether, after the range statement, the function
// passes obj to any function of package sort or slices — the idiom
// that restores a deterministic order before the slice escapes.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !(pass.IsPkgName(sel.X, "sort") || pass.IsPkgName(sel.X, "slices")) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
