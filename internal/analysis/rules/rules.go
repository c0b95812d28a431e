// Package rules holds the paslint analyzers: machine-checked versions
// of the invariants the PAS reproduction depends on. Each analyzer is a
// plain analysis.Analyzer; All returns the registered set in the order
// cmd/paslint runs them.
//
// Scoping: some rules only bite in particular parts of the tree (the
// deterministic simulation packages, the serving hot path). Those sets
// are package-level variables so fixture tests can widen them; the
// defaults encode the repository's architecture.
package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// All returns every registered analyzer, in run order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		CtxPropagate,
		LockHeld,
		ErrWrap,
		HTTPBody,
		GoroutineLeak,
		TimerStop,
		AtomicMix,
		ChanHygiene,
		HotPathAlloc,
		Unused,
	}
}

// ByName resolves a comma-separated rule list ("determinism,errwrap").
func ByName(list string) ([]*analysis.Analyzer, bool) {
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// DeterministicPaths are the package-path fragments whose code must be
// bit-deterministic under a seed: the paper's win-rate tables (PAPER.md
// §4) are only reproducible if these never read the clock or the global
// rand source.
var DeterministicPaths = []string{
	"internal/simllm",
	"internal/corpus",
	"internal/cluster",
	"internal/hnsw",
	"internal/metrics",
}

// pathInScope reports whether the import path matches any fragment:
// exact, suffix, or segment-wise containment.
func pathInScope(path string, scope []string) bool {
	for _, frag := range scope {
		if path == frag || strings.HasSuffix(path, "/"+frag) || strings.Contains(path, "/"+frag+"/") || strings.HasPrefix(path, frag+"/") {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is a package-level function (no
// receiver) of pkgPath named one of names.
func isPkgFunc(fn *types.Func, pkgPath string, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// recvNamed returns the receiver's named type (through pointers), or
// nil for package functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isNamedType reports whether t (through pointers) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// errType is the predeclared error interface.
var errType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) error.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errType) || types.Identical(t, errType)
}

// resultTypes returns the result tuple of a call's callee signature.
func resultTypes(info *types.Info, call *ast.CallExpr) *types.Tuple {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return sig.Results()
}

// enclosingFuncs walks every function body in the package's files,
// calling fn with the declaration (nil for function literals reached at
// package level) and the body.
func enclosingFuncs(files []*ast.File, fn func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				if v.Body != nil {
					fn(v, nil, v.Body)
				}
			case *ast.FuncLit:
				fn(nil, v, v.Body)
			}
			return true
		})
	}
}
