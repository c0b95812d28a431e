package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/lite"
)

// timerStop enforces timer and ticker lifecycle hygiene:
//
//   - time.Tick is banned outright — the ticker it allocates can never
//     be stopped, so every call is a permanent goroutine-and-channel
//     leak dressed up as convenience.
//   - time.After inside a loop allocates a fresh timer per iteration
//     that is only collected when it fires; at loadgen QPS that is a
//     heap of pending timers. Hoist a time.NewTimer and Reset it.
//   - A locally created *time.Timer/*time.Ticker must have Stop
//     reachable on every return path; `defer t.Stop()` right after
//     creation is the shape that cannot rot. Values that escape the
//     function (returned, stored in a field, passed along) are the
//     caller's to stop and are exempt.
var timerStop = &analysis.Analyzer{
	Name: "timerstop",
	Doc:  "flag time.Tick, time.After in loops, and NewTimer/NewTicker values not stopped on every return path",
	Run:  runTimerStop,
}

func runTimerStop(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		checkTickAndAfter(pass, f)
	}
	enclosingFuncs(pass.Files, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		checkUnstoppedLocals(pass, body)
	})
	return nil
}

// checkTickAndAfter walks one file flagging time.Tick anywhere and
// time.After lexically inside a loop. The loop test does not cross
// function-literal boundaries: a callback defined in a loop runs once
// per call, not once per iteration.
func checkTickAndAfter(pass *analysis.Pass, f *ast.File) {
	lite.Inspect(f, func(stack []ast.Node) bool {
		call, ok := stack[len(stack)-1].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		switch {
		case isPkgFunc(fn, "time", "Tick"):
			pass.Reportf(call.Pos(), "time.Tick leaks its ticker forever; use time.NewTicker with defer Stop")
		case isPkgFunc(fn, "time", "After") && inLoop(stack):
			pass.Reportf(call.Pos(), "time.After in a loop allocates an un-stoppable timer per iteration; hoist a time.NewTimer and Reset it each pass")
		}
		return true
	})
}

// inLoop reports whether the innermost enclosing loop/function-literal
// ancestor is a loop.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// checkUnstoppedLocals finds `t := time.NewTimer(...)` / NewTicker
// creations whose value stays local to body and reports every return
// path reachable before t.Stop().
func checkUnstoppedLocals(pass *analysis.Pass, body *ast.BlockStmt) {
	for _, stmt := range body.List {
		obj, ctor := timerCreation(pass.Info, stmt)
		if obj == nil || escapesFunc(pass.Info, body, obj, stmt) {
			continue
		}
		resolve := func(n ast.Node) bool { return isStopCall(pass.Info, n, obj) }
		for _, pos := range lite.ReturnsBefore(body, stmt, resolve) {
			pass.Reportf(pos, "%s from time.%s is not stopped on this return path; defer %s.Stop() at creation", obj.Name(), ctor, obj.Name())
		}
	}
}

// timerCreation matches `x := time.NewTimer(...)` or NewTicker at the
// top level of a block, returning the created variable.
func timerCreation(info *types.Info, stmt ast.Stmt) (*types.Var, string) {
	a, ok := stmt.(*ast.AssignStmt)
	if !ok || len(a.Lhs) != 1 || len(a.Rhs) != 1 {
		return nil, ""
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	fn := calleeFunc(info, call)
	if !isPkgFunc(fn, "time", "NewTimer", "NewTicker", "AfterFunc") {
		return nil, ""
	}
	if fn.Name() == "AfterFunc" {
		// AfterFunc timers self-dispose when they fire; stopping them is
		// an optimization, not a lifecycle requirement.
		return nil, ""
	}
	id, ok := a.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, ""
	}
	v, _ := info.Defs[id].(*types.Var)
	return v, fn.Name()
}

// isStopCall matches `x.Stop()` on the tracked variable.
func isStopCall(info *types.Info, n ast.Node, obj *types.Var) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Stop" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == types.Object(obj)
}

// escapesFunc reports whether obj is handed beyond the function after
// its creation statement: returned, sent, passed as a call argument
// (method calls on obj itself do not count), assigned to anything, or
// folded into a composite literal. Any of these makes another owner
// responsible for Stop.
func escapesFunc(info *types.Info, body *ast.BlockStmt, obj *types.Var, creation ast.Stmt) bool {
	escaped := false
	lite.Inspect(body, func(stack []ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := stack[len(stack)-1].(*ast.Ident)
		if !ok || info.Uses[id] != types.Object(obj) {
			return true
		}
		for i := len(stack) - 2; i >= 0; i-- {
			switch p := stack[i].(type) {
			case *ast.SelectorExpr:
				// t.C, t.Stop, t.Reset: consuming the timer locally.
				return true
			case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
				escaped = true
				return false
			case *ast.CallExpr:
				for _, arg := range p.Args {
					if containsNode(arg, id) {
						escaped = true
						return false
					}
				}
				return true
			case *ast.AssignStmt:
				// On the right of an assignment the timer is handed to a
				// second name; on the left it is being re-bound. Either way
				// the simple single-owner story ends here.
				for _, rhs := range p.Rhs {
					if containsNode(rhs, id) {
						escaped = true
						return false
					}
				}
				return true
			case *ast.UnaryExpr, *ast.ParenExpr, *ast.StarExpr:
				continue
			default:
				return true
			}
		}
		return true
	})
	return escaped
}
