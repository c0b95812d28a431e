package rules

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ctxPropagate enforces context plumbing through the serving stack:
//
//  1. A function that receives a context.Context must not mint a fresh
//     root with context.Background() or context.TODO() — that silently
//     detaches the callee from the caller's deadline and cancellation.
//  2. Outside package main, calls to a context-less chat shim of the
//     module (a method named Chat, ChatCompletion or Enhance) are
//     flagged: the Context forms exist precisely so deadlines survive
//     the serving/proxy hot path. The module declares no such shim
//     today; the rule keeps one from coming back.
//
// Rule 2 only fires on methods *defined in this module* so unrelated
// third-party-shaped names never trip it, and it skips the wrapper
// methods themselves (a shim's own body is the one legitimate caller of
// the pattern it deprecates — those carry //paslint:allow directives).
var ctxPropagate = &analysis.Analyzer{
	Name: "ctxpropagate",
	Doc:  "flag context.Background inside context-receiving functions and internal callers of the deprecated context-less chat shims",
	Run:  runCtxPropagate,
}

// contextlessShims are the method names rule 2 polices. Each has a
// <name>Context counterpart; Augment deliberately is not listed — it is
// the primary synchronous API, not a deprecated wrapper.
var contextlessShims = map[string]bool{
	"Chat":           true,
	"ChatCompletion": true,
	"Enhance":        true,
}

func runCtxPropagate(pass *analysis.Pass) error {
	isMain := pass.Pkg != nil && pass.Pkg.Name() == "main"
	enclosingFuncs(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		var ftype *ast.FuncType
		if decl != nil {
			ftype = decl.Type
		} else {
			ftype = lit.Type
		}
		hasCtx := hasParamOfType(pass.Info, ftype, isContextType)
		hasReq := hasParamOfType(pass.Info, ftype, isHTTPRequestPtr)
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != lit {
				return false // nested literals get their own visit
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if hasCtx && isPkgFunc(fn, "context", "Background", "TODO") {
				pass.Reportf(call.Pos(), "context.%s inside a function that already receives a context.Context; pass the caller's context through", fn.Name())
			}
			if !isMain && moduleShimCall(pass, fn) {
				hint := "use the " + fn.Name() + "Context variant"
				if fn.Name() == "Chat" {
					hint = "use ChatContext (the one method of simllm.Chatter)"
				}
				if hasCtx || hasReq {
					pass.Reportf(call.Pos(), "context-less %s call drops the in-scope context; %s", fn.Name(), hint)
				} else {
					pass.Reportf(call.Pos(), "internal caller of deprecated context-less shim %s.%s; %s", recvName(fn), fn.Name(), hint)
				}
			}
			return true
		})
	})
	return nil
}

// moduleShimCall reports whether fn is a context-less chat-family
// method defined inside this module (concrete or interface method).
func moduleShimCall(pass *analysis.Pass, fn *types.Func) bool {
	if !contextlessShims[fn.Name()] {
		return false
	}
	if fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	if p != pass.Module && !strings.HasPrefix(p, pass.Module+"/") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func recvName(fn *types.Func) string {
	if named := recvNamed(fn); named != nil {
		return named.Obj().Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok && iface != nil {
			return "interface"
		}
	}
	return "?"
}

// hasParamOfType reports whether any parameter's type satisfies pred.
func hasParamOfType(info *types.Info, ftype *ast.FuncType, pred func(types.Type) bool) bool {
	if ftype.Params == nil {
		return false
	}
	for _, field := range ftype.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		if pred(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}

func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamedType(p, "net/http", "Request")
}
