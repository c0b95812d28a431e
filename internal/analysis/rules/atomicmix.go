package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/lite"
)

// atomicMix flags variables that are accessed through sync/atomic in
// one place and plainly in another. Mixing the two is not a smaller
// race — it is no synchronization at all: the plain access is free to
// tear, reorder, and miss published values, and it does so exactly
// under the load that made someone reach for atomics in the first
// place. The fix is always the same: every access goes through the
// atomic API (including the zero-to-initial store in constructors), or
// the field moves behind the mutex with its friends.
//
// The check is package-scoped and object-precise: it keys on the
// *types.Var, so `s.hits` in one method and `c.hits` in another are
// the same field. Struct literal keys and declarations are not
// accesses.
var atomicMix = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "flag variables accessed both via sync/atomic and plainly",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *analysis.Pass) error {
	atomicSites := map[*types.Var]string{} // var -> first atomic call site (for the message)
	excused := map[*ast.Ident]bool{}       // idents consumed by the atomic calls themselves

	// Pass 1: record every &x handed to a sync/atomic function.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				id := rootIdent(un.X)
				if id == nil {
					continue
				}
				v, ok := refObject(pass.Info, id).(*types.Var)
				if !ok {
					continue
				}
				if _, seen := atomicSites[v]; !seen {
					pos := pass.Fset.Position(call.Pos())
					atomicSites[v] = shortPos(pos.Filename, pos.Line)
				}
				// Every ident inside this &x expression belongs to the
				// atomic access, not a plain one.
				ast.Inspect(un, func(m ast.Node) bool {
					if mid, ok := m.(*ast.Ident); ok {
						excused[mid] = true
					}
					return true
				})
			}
			return true
		})
	}
	if len(atomicSites) == 0 {
		return nil
	}

	// Pass 2: any other use of those variables is a plain access.
	for _, f := range pass.Files {
		lite.Inspect(f, func(stack []ast.Node) bool {
			id, ok := stack[len(stack)-1].(*ast.Ident)
			if !ok || excused[id] {
				return true
			}
			v, ok := refObject(pass.Info, id).(*types.Var)
			if !ok {
				return true
			}
			site, tracked := atomicSites[v]
			if !tracked || isDeclOrKey(stack, id, pass.Info) {
				return true
			}
			pass.Reportf(id.Pos(), "%s is accessed atomically at %s but plainly here; every access must go through sync/atomic (or move the field behind the mutex)", v.Name(), site)
			return true
		})
	}
	return nil
}

// refObject resolves an identifier to the object it references,
// checking Uses then Defs.
func refObject(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// rootIdent returns the field/variable identifier at the tip of
// x, s.x, s.embedded.x — the last selector component, or the ident
// itself.
func rootIdent(e ast.Expr) *ast.Ident {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return v
	case *ast.SelectorExpr:
		return v.Sel
	case *ast.IndexExpr:
		return rootIdent(v.X)
	}
	return nil
}

// isDeclOrKey reports whether id is a declaration site (struct field,
// var statement) or a composite-literal key — positions that name the
// variable without reading or writing it.
func isDeclOrKey(stack []ast.Node, id *ast.Ident, info *types.Info) bool {
	if info.Defs[id] != nil {
		return true
	}
	if len(stack) < 2 {
		return false
	}
	if kv, ok := stack[len(stack)-2].(*ast.KeyValueExpr); ok && kv.Key == ast.Expr(id) {
		if len(stack) >= 3 {
			if _, inLit := stack[len(stack)-3].(*ast.CompositeLit); inLit {
				return true
			}
		}
	}
	return false
}

// shortPos renders file:line with the file reduced to its base name —
// the diagnostic already carries the full path of the *plain* site.
func shortPos(filename string, line int) string {
	if i := strings.LastIndexByte(filename, '/'); i >= 0 {
		filename = filename[i+1:]
	}
	return filename + ":" + strconv.Itoa(line)
}
