// Package lite holds the small control-flow and escape helpers shared
// by the concurrency and resource-lifecycle rules (goroutineleak,
// timerstop, chanhygiene, hotpathalloc). "Lite" is a promise, not an
// apology: these are linear, syntax-directed approximations of CFG and
// escape analysis — sound enough to police this repository's idioms,
// cheap enough to run over every package on every push, and honest
// about their blind spots (each caller documents the false
// negatives/positives it accepts).
package lite

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Inspect walks root like ast.Inspect but hands fn the full ancestor
// stack, innermost node last. Returning false prunes the subtree.
func Inspect(root ast.Node, fn func(stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(stack) {
			// ast.Inspect sends no closing nil for a pruned subtree.
			stack = stack[:len(stack)-1]
			return false
		}
		return true
	})
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// HasCancellationSignal reports whether body contains a construct that
// can observe cancellation or shutdown: a channel receive (unary <-,
// including <-ctx.Done()), a range over a channel, a select with a
// receive case, or — when the body also contains a return or break to
// act on it — a call that passes a context.Context or channel along
// (delegating the wait, as resilience.SleepContext does). Nested `go`
// literals are not descended into: their exits belong to them.
func HasCancellationSignal(body ast.Node, info *types.Info) bool {
	found := false
	hasExitStmt := false
	var delegated bool // ctx/chan-passing call seen
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				found = true
				return false
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[v.X]; ok && isChanType(tv.Type) {
				found = true
				return false
			}
		case *ast.CommClause:
			// Any select case that is not the default observes a channel.
			if v.Comm != nil {
				found = true
				return false
			}
		case *ast.ReturnStmt:
			hasExitStmt = true
		case *ast.BranchStmt:
			if v.Tok == token.BREAK || v.Tok == token.GOTO {
				hasExitStmt = true
			}
		case *ast.CallExpr:
			for _, arg := range v.Args {
				if tv, ok := info.Types[arg]; ok && (isContextType(tv.Type) || isChanType(tv.Type)) {
					delegated = true
					break
				}
			}
		}
		return true
	})
	return found || (delegated && hasExitStmt)
}

// InfiniteLoops returns the `for` statements under root (skipping
// nested function literals and `go` statements) that have no loop
// condition — the shape of a background loop that runs until something
// inside it decides to stop.
func InfiniteLoops(root ast.Node) []*ast.ForStmt {
	var out []*ast.ForStmt
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if v.Cond == nil {
				out = append(out, v)
			}
		}
		return true
	})
	return out
}

// ReturnsBefore scans the execution paths of body that follow start (a
// statement in body, possibly nested), in source order, and returns the
// positions of return statements reachable before resolve matches a
// node on that path. A resolving node inside a DeferStmt resolves the
// remainder of the function outright (that is the point of defer).
// Reaching the end of body with the main path unresolved counts as one
// more unresolved exit, reported at body's closing brace — functions
// can fall off the end without a return.
//
// The scan mirrors the lockheld analyzer's discipline: nested control
// flow is entered with a fork of the current state, so a branch that
// resolves and returns does not bless the fall-through path. Function
// literals are not descended into (a callback does not run on this
// path). The approximation is linear: a resolve inside one branch does
// not resolve its siblings, and loops are scanned once.
func ReturnsBefore(body *ast.BlockStmt, start ast.Stmt, resolve func(ast.Node) bool) []token.Pos {
	s := &pathScan{start: start, resolve: resolve}
	st := scanState{}
	st = s.scanStmts(body.List, st)
	if s.started && !st.resolved {
		s.rets = append(s.rets, body.Rbrace)
	}
	return s.rets
}

type pathScan struct {
	start   ast.Stmt
	resolve func(ast.Node) bool
	started bool
	rets    []token.Pos
}

type scanState struct {
	resolved bool
}

// scanStmts processes one statement list, returning the fall-through
// state.
func (s *pathScan) scanStmts(stmts []ast.Stmt, st scanState) scanState {
	for _, stmt := range stmts {
		if !s.started {
			if containsStmt(stmt, s.start) {
				s.started = true
				// The creation statement itself cannot also resolve or
				// return; move on to the next statement. If start is
				// nested inside a branch of stmt, the conservative choice
				// is to begin scanning *after* stmt: paths inside the
				// remainder of that branch are skipped (false negative,
				// never a false positive).
				continue
			}
			continue
		}
		st = s.scanStmt(stmt, st)
	}
	return st
}

func (s *pathScan) scanStmt(stmt ast.Stmt, st scanState) scanState {
	if st.resolved {
		return st
	}
	switch v := stmt.(type) {
	case *ast.DeferStmt:
		if s.resolvesIn(v.Call) {
			st.resolved = true
		}
	case *ast.ReturnStmt:
		s.rets = append(s.rets, v.Pos())
	case *ast.BlockStmt:
		st = s.scanStmts(v.List, st)
	case *ast.IfStmt:
		fork := s.scanStmts(v.Body.List, st)
		if v.Else != nil {
			s.scanStmt(v.Else, st)
		}
		_ = fork // branches do not bless the fall-through path
	case *ast.ForStmt:
		s.scanStmts(v.Body.List, st)
	case *ast.RangeStmt:
		s.scanStmts(v.Body.List, st)
	case *ast.SwitchStmt:
		for _, c := range v.Body.List {
			s.scanStmts(c.(*ast.CaseClause).Body, st)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range v.Body.List {
			s.scanStmts(c.(*ast.CaseClause).Body, st)
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			s.scanStmts(c.(*ast.CommClause).Body, st)
		}
	default:
		if s.resolvesIn(stmt) {
			st.resolved = true
		}
	}
	return st
}

// resolvesIn reports whether any node under n (outside nested function
// literals) satisfies resolve.
func (s *pathScan) resolvesIn(n ast.Node) bool {
	hit := false
	ast.Inspect(n, func(m ast.Node) bool {
		if hit {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if m != nil && s.resolve(m) {
			hit = true
			return false
		}
		return true
	})
	return hit
}

// containsStmt reports whether target is n or nested anywhere under n.
func containsStmt(n ast.Stmt, target ast.Stmt) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if m == ast.Node(target) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Escapes judges whether the value produced at the top of stack (the
// innermost node, a composite literal or its &-address) leaves the
// enclosing function, from its syntactic context alone: returned, sent
// on a channel, passed as a call argument, stored through a pointer,
// field, index, or package-level variable, or folded into a larger
// literal that itself escapes. Assignment to a fresh local and
// immediate local consumption (indexing, ranging, discarding) do not
// escape. When the context is something this walk does not model, it
// says escapes=true — for an allocation linter the conservative answer
// is the useful one.
func Escapes(stack []ast.Node, info *types.Info) bool {
	// Walk outward from the literal.
	for i := len(stack) - 2; i >= 0; i-- {
		child := stack[i+1]
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				continue // &T{...}: judged by where the pointer goes
			}
			return true
		case *ast.KeyValueExpr, *ast.CompositeLit:
			continue // element of a larger literal: judged by the literal
		case *ast.ReturnStmt:
			return true
		case *ast.SendStmt:
			return true
		case *ast.CallExpr:
			// As an argument the value is the callee's to keep; as the
			// function expression it is being called, which keeps it local.
			for _, arg := range p.Args {
				if arg == child {
					return true
				}
			}
			return false
		case *ast.AssignStmt:
			return assignEscapes(p, child, info)
		case *ast.ValueSpec:
			// var x = T{...} inside a function body: local.
			return false
		case *ast.ExprStmt:
			return false // value discarded
		case *ast.RangeStmt:
			return p.X != child // ranging over the literal consumes it locally
		case *ast.IndexExpr:
			if p.X == child {
				return false // []T{...}[i]: consumed locally
			}
			return true
		default:
			return true
		}
	}
	return true
}

// assignEscapes classifies one assignment: the literal escapes when its
// destination is anything other than a fresh or function-local plain
// identifier (a field, a dereference, an index expression, a
// package-level variable).
func assignEscapes(a *ast.AssignStmt, rhs ast.Node, info *types.Info) bool {
	idx := -1
	for i, r := range a.Rhs {
		if r == rhs {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= len(a.Lhs) {
		// Tuple shapes this walk does not model; be conservative.
		return true
	}
	switch lhs := ast.Unparen(a.Lhs[idx]).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return false
		}
		obj := info.Defs[lhs]
		if obj == nil {
			obj = info.Uses[lhs]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil {
			// A package-level destination outlives the function.
			return v.Parent() == v.Pkg().Scope()
		}
		return true
	default:
		return true // x.f = ..., *p = ..., m[k] = ...
	}
}
