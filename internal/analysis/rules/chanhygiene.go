package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/lite"
)

// chanHygiene enforces the channel ownership rules the serving tier
// lives by:
//
//   - close from one owner: a channel closed in more than one function
//     is a panic with a scheduling dependency — whichever close loses
//     the race takes the process down. One function owns the close;
//     everyone else signals through it.
//   - no send after close on a path: `close(ch)` followed by `ch <- v`
//     on the same control-flow path is the same panic without needing
//     a second goroutine.
//   - no bare blocking send in request handlers: a handler that does
//     `ch <- v` outside a select parks the request goroutine (and its
//     connection, and its file descriptor) on a consumer that may be
//     wedged. Handlers send via select with ctx.Done()/default so
//     back-pressure turns into 503s, not connection pileup.
//
// The path scan mirrors lockheld's: linear, branch-forking, and silent
// about channels it cannot resolve to a variable.
var chanHygiene = &analysis.Analyzer{
	Name: "chanhygiene",
	Doc:  "flag multi-owner channel close, send-after-close on a path, and bare blocking sends in HTTP handlers",
	Run:  runChanHygiene,
}

func runChanHygiene(pass *analysis.Pass) error {
	checkMultiClose(pass)
	enclosingFuncs(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		scanSendAfterClose(pass, body.List, map[*types.Var]bool{})
		if isHTTPHandler(pass.Info, decl, lit) {
			checkHandlerSends(pass, body)
		}
	})
	return nil
}

// checkMultiClose reports every close of a channel variable that is
// closed in more than one function of the package.
func checkMultiClose(pass *analysis.Pass) {
	type closeSite struct {
		pos  ast.Node
		host ast.Node // enclosing FuncDecl or FuncLit
	}
	sites := map[*types.Var][]closeSite{}
	enclosingFuncs(pass.Files, func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt) {
		var host ast.Node = decl
		if decl == nil {
			host = lit
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != host {
				return false // inner literals get their own visit
			}
			if v := closedChan(pass.Info, n); v != nil {
				sites[v] = append(sites[v], closeSite{pos: n, host: host})
			}
			return true
		})
	})
	for v, ss := range sites {
		hosts := map[ast.Node]bool{}
		for _, s := range ss {
			hosts[s.host] = true
		}
		if len(hosts) < 2 {
			continue
		}
		for _, s := range ss {
			pass.Reportf(s.pos.Pos(), "%s is closed in %d different functions; a channel needs exactly one closing owner", v.Name(), len(hosts))
		}
	}
}

// closedChan matches `close(x)` where x resolves to a channel
// variable, returning the variable.
func closedChan(info *types.Info, n ast.Node) *types.Var {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return nil
	}
	root := rootIdent(call.Args[0])
	if root == nil {
		return nil
	}
	v, _ := refObject(info, root).(*types.Var)
	return v
}

// scanSendAfterClose walks one statement list with the set of channel
// variables closed so far on this path; branches fork the set, like
// lockheld's held map.
func scanSendAfterClose(pass *analysis.Pass, stmts []ast.Stmt, closed map[*types.Var]bool) {
	fork := func() map[*types.Var]bool {
		c := make(map[*types.Var]bool, len(closed))
		for k := range closed {
			c[k] = true
		}
		return c
	}
	for _, st := range stmts {
		switch v := st.(type) {
		case *ast.ExprStmt:
			if ch := closedChan(pass.Info, v.X); ch != nil {
				closed[ch] = true
			}
		case *ast.SendStmt:
			if root := rootIdent(v.Chan); root != nil {
				if ch, _ := refObject(pass.Info, root).(*types.Var); ch != nil && closed[ch] {
					pass.Reportf(v.Pos(), "send on %s after close(%s) on this path; sends on a closed channel panic", ch.Name(), ch.Name())
				}
			}
		case *ast.BlockStmt:
			scanSendAfterClose(pass, v.List, fork())
		case *ast.IfStmt:
			scanSendAfterClose(pass, v.Body.List, fork())
			if v.Else != nil {
				scanSendAfterClose(pass, []ast.Stmt{v.Else}, fork())
			}
		case *ast.ForStmt:
			scanSendAfterClose(pass, v.Body.List, fork())
		case *ast.RangeStmt:
			scanSendAfterClose(pass, v.Body.List, fork())
		case *ast.SwitchStmt:
			for _, c := range v.Body.List {
				scanSendAfterClose(pass, c.(*ast.CaseClause).Body, fork())
			}
		case *ast.TypeSwitchStmt:
			for _, c := range v.Body.List {
				scanSendAfterClose(pass, c.(*ast.CaseClause).Body, fork())
			}
		case *ast.SelectStmt:
			for _, c := range v.Body.List {
				scanSendAfterClose(pass, c.(*ast.CommClause).Body, fork())
			}
		}
	}
}

// isHTTPHandler reports whether the function takes an
// http.ResponseWriter parameter — the repository's definition of "a
// request handler".
func isHTTPHandler(info *types.Info, decl *ast.FuncDecl, lit *ast.FuncLit) bool {
	var ft *ast.FuncType
	switch {
	case decl != nil:
		ft = decl.Type
	case lit != nil:
		ft = lit.Type
	default:
		return false
	}
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if ok && isNamedInterface(tv.Type, "net/http", "ResponseWriter") {
			return true
		}
	}
	return false
}

// isNamedInterface reports whether t is the named interface
// pkgPath.name.
func isNamedInterface(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// checkHandlerSends flags plain sends in a handler body that are not
// select cases. Sends inside nested function literals are skipped: a
// goroutine the handler spawns is not holding the request's connection
// hostage (goroutineleak polices its lifecycle instead).
func checkHandlerSends(pass *analysis.Pass, body *ast.BlockStmt) {
	lite.Inspect(body, func(stack []ast.Node) bool {
		switch v := stack[len(stack)-1].(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if len(stack) >= 2 {
				if cc, ok := stack[len(stack)-2].(*ast.CommClause); ok && cc.Comm == ast.Stmt(v) {
					return true // select case: non-blocking by construction
				}
			}
			pass.Reportf(v.Pos(), "blocking channel send in a request handler; wrap it in a select with ctx.Done() or default so a stuck consumer cannot pin the connection")
		}
		return true
	})
}
