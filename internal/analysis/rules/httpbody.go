package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// httpBody enforces HTTP resource hygiene on both sides of the wire:
//
//  1. Client side: a *http.Response obtained from a call must have its
//     Body closed somewhere in the same function (usually
//     defer resp.Body.Close()), or escape it — be returned, passed to
//     another call, stored in a field, or sent on a channel — so the
//     responsibility visibly moves. An unclosed body leaks the
//     connection and caps the client at its idle-pool size.
//  2. Server side: in handler-shaped functions (an http.ResponseWriter
//     parameter), WriteHeader after the first body write is flagged —
//     the write already committed status 200, so the late WriteHeader
//     is a silent no-op plus a log line. A second WriteHeader is
//     flagged the same way. http.Error and the module's JSON error
//     helpers count as header+body writes.
var httpBody = &analysis.Analyzer{
	Name: "httpbody",
	Doc:  "flag unclosed http.Response bodies and WriteHeader-after-write ordering bugs in handlers",
	Run:  runHTTPBody,
}

func runHTTPBody(pass *analysis.Pass) error {
	enclosingFuncs(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		checkResponseBodies(pass, body)
		var ftype *ast.FuncType
		if decl != nil {
			ftype = decl.Type
		} else {
			ftype = lit.Type
		}
		if w := responseWriterParam(pass.Info, ftype); w != nil {
			scanWriteOrder(pass, body.List, w, &writeState{})
		}
	})
	return nil
}

// --- rule 1: response bodies -----------------------------------------

// checkResponseBodies finds vars bound to *http.Response call results
// and verifies each is closed or escapes.
func checkResponseBodies(pass *analysis.Pass, body *ast.BlockStmt) {
	type binding struct {
		obj types.Object
		pos ast.Node
	}
	var bindings []binding
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested functions are visited on their own
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		results := resultTypes(pass.Info, call)
		if results == nil {
			return true
		}
		for i := 0; i < results.Len() && i < len(as.Lhs); i++ {
			if !isResponsePtr(results.At(i).Type()) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil {
				bindings = append(bindings, binding{obj: obj, pos: as})
			}
		}
		return true
	})
	for _, b := range bindings {
		if !closedOrEscapes(pass, body, b.obj) {
			pass.Reportf(b.pos.Pos(), "response body of %s is never closed on some path; defer %s.Body.Close() after the error check", b.obj.Name(), b.obj.Name())
		}
	}
}

func isResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamedType(p, "net/http", "Response")
}

// closedOrEscapes reports whether obj's Body is closed in body, or obj
// escapes the function (returned, passed along, stored, sent).
func closedOrEscapes(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			// resp.Body.Close() (possibly via defer)
			if sel, isSel := v.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Close" {
				if inner, isSel2 := ast.Unparen(sel.X).(*ast.SelectorExpr); isSel2 && inner.Sel.Name == "Body" {
					if id, isID := ast.Unparen(inner.X).(*ast.Ident); isID && pass.Info.Uses[id] == obj {
						ok = true
						return false
					}
				}
			}
			// resp passed to another function: responsibility moved.
			for _, arg := range v.Args {
				if id, isID := ast.Unparen(arg).(*ast.Ident); isID && pass.Info.Uses[id] == obj {
					ok = true
					return false
				}
			}
		case *ast.ReturnStmt:
			// Only the response itself escapes ownership; returning a
			// field read off it (resp.StatusCode) does not.
			for _, res := range v.Results {
				if id, isID := ast.Unparen(res).(*ast.Ident); isID && pass.Info.Uses[id] == obj {
					ok = true
					return false
				}
			}
		case *ast.SendStmt:
			if id, isID := ast.Unparen(v.Value).(*ast.Ident); isID && pass.Info.Uses[id] == obj {
				ok = true
				return false
			}
		case *ast.AssignStmt:
			// Stored into a field, map, or captured variable:
			// resp ownership moved somewhere longer-lived.
			for i, rhs := range v.Rhs {
				if id, isID := ast.Unparen(rhs).(*ast.Ident); isID && pass.Info.Uses[id] == obj {
					if i < len(v.Lhs) {
						if _, plain := v.Lhs[i].(*ast.Ident); !plain {
							ok = true
							return false
						}
					}
				}
			}
		}
		return true
	})
	return ok
}

// --- rule 2: WriteHeader ordering ------------------------------------

// responseWriterParam returns the http.ResponseWriter parameter's
// object, or nil.
func responseWriterParam(info *types.Info, ftype *ast.FuncType) types.Object {
	if ftype.Params == nil {
		return nil
	}
	for _, field := range ftype.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isNamedType(tv.Type, "net/http", "ResponseWriter") {
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

type writeState struct {
	wroteBody   bool
	wroteHeader bool
}

// scanWriteOrder walks statements in order tracking header/body write
// state on w. Branches are scanned with copies: a write inside one
// branch does not poison the fall-through path (conservative:
// under-reports, never false-positives on exclusive branches).
func scanWriteOrder(pass *analysis.Pass, stmts []ast.Stmt, w types.Object, st *writeState) {
	for _, s := range stmts {
		switch v := s.(type) {
		case *ast.BlockStmt:
			sub := *st
			scanWriteOrder(pass, v.List, w, &sub)
		case *ast.IfStmt:
			sub := *st
			scanWriteOrder(pass, v.Body.List, w, &sub)
			if v.Else != nil {
				sub2 := *st
				scanWriteOrder(pass, []ast.Stmt{v.Else}, w, &sub2)
			}
		case *ast.ForStmt:
			sub := *st
			scanWriteOrder(pass, v.Body.List, w, &sub)
		case *ast.RangeStmt:
			sub := *st
			scanWriteOrder(pass, v.Body.List, w, &sub)
		case *ast.SwitchStmt:
			for _, c := range v.Body.List {
				sub := *st
				scanWriteOrder(pass, c.(*ast.CaseClause).Body, w, &sub)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range v.Body.List {
				sub := *st
				scanWriteOrder(pass, c.(*ast.CaseClause).Body, w, &sub)
			}
		default:
			classifyWriteStmt(pass, s, w, st)
		}
	}
}

// classifyWriteStmt updates st for one linear statement, reporting
// ordering violations.
func classifyWriteStmt(pass *analysis.Pass, s ast.Stmt, w types.Object, st *writeState) {
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isWriteHeaderCall(pass.Info, call, w):
			if st.wroteBody {
				pass.Reportf(call.Pos(), "WriteHeader after the response body was written; the status is already committed to 200")
			} else if st.wroteHeader {
				pass.Reportf(call.Pos(), "duplicate WriteHeader; the first call already committed the status")
			}
			st.wroteHeader = true
		case isBodyWriteCall(pass.Info, call, w):
			st.wroteBody = true
			st.wroteHeader = true // a body write commits the header too
		}
		return true
	})
}

// isWriteHeaderCall matches w.WriteHeader(...).
func isWriteHeaderCall(info *types.Info, call *ast.CallExpr, w types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == w
}

// isBodyWriteCall matches the ways handlers write bodies: w.Write(...),
// fmt.Fprint*(w, ...), io.WriteString(w, ...), http.Error(w, ...),
// json.NewEncoder(w).Encode(...), and any module helper taking w as its
// first argument with "write"/"Write" in its name.
func isBodyWriteCall(info *types.Info, call *ast.CallExpr, w types.Object) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Write" {
		if id, ok2 := ast.Unparen(sel.X).(*ast.Ident); ok2 && info.Uses[id] == w {
			return true
		}
	}
	fn := calleeFunc(info, call)
	wIsArg := func(i int) bool {
		if i >= len(call.Args) {
			return false
		}
		id, ok := ast.Unparen(call.Args[i]).(*ast.Ident)
		return ok && info.Uses[id] == w
	}
	if fn != nil {
		if isPkgFunc(fn, "fmt", "Fprintf", "Fprintln", "Fprint") && wIsArg(0) {
			return true
		}
		if isPkgFunc(fn, "io", "WriteString", "Copy") && wIsArg(0) {
			return true
		}
		if isPkgFunc(fn, "net/http", "Error", "ServeContent", "ServeFile", "Redirect", "NotFound") && wIsArg(0) {
			return true
		}
		// Module-local write helpers: writeJSON(w, ...), writeError(w, ...)
		if fn.Pkg() != nil && fn.Pkg().Path() != "fmt" && fn.Pkg().Path() != "io" && fn.Pkg().Path() != "net/http" {
			name := fn.Name()
			if (len(name) >= 5 && (name[:5] == "write" || name[:5] == "Write")) && wIsArg(0) {
				return true
			}
		}
	}
	// json.NewEncoder(w).Encode(...): w reaches the encoder.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Encode" {
		if inner, ok2 := ast.Unparen(sel.X).(*ast.CallExpr); ok2 {
			for _, arg := range inner.Args {
				if id, ok3 := ast.Unparen(arg).(*ast.Ident); ok3 && info.Uses[id] == w {
					return true
				}
			}
		}
	}
	return false
}
