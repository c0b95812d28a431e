package rules

import (
	"go/ast"

	"repro/internal/analysis"
	"repro/internal/analysis/lite"
)

// goroutineLeak flags the two spawn shapes behind every goroutine leak
// this repository has shipped: a `go func` whose body loops forever
// with no way to observe cancellation (no channel receive, no select,
// no context-carrying call it could return from), and a derived
// context whose CancelFunc is discarded with `_` — the child context
// then outlives every deadline and pins its timer and parent entry
// until process exit. The ring membership prober and the loadgen
// dispatcher are exactly these shapes done right: every background
// loop selects on a stop channel or ctx.Done(), and every
// WithCancel's cancel lands in a struct field or defer.
//
// The loop check is syntactic and per-literal: `go m.loop()` is not
// chased into the callee, so a leak split across two functions is an
// accepted false negative. The repository convention — spawn function
// literals whose select is visible at the spawn site — keeps the check
// honest where it matters.
var goroutineLeak = &analysis.Analyzer{
	Name: "goroutineleak",
	Doc:  "flag go statements whose body loops forever without observing cancellation, and discarded context CancelFuncs",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
					checkSpawnedBody(pass, v, lit.Body)
				}
			case *ast.AssignStmt:
				checkDiscardedCancel(pass, v)
			}
			return true
		})
	}
	return nil
}

// checkSpawnedBody reports each infinite loop in a goroutine body that
// has no reachable cancellation signal.
func checkSpawnedBody(pass *analysis.Pass, g *ast.GoStmt, body *ast.BlockStmt) {
	for _, loop := range lite.InfiniteLoops(body) {
		if !lite.HasCancellationSignal(loop.Body, pass.Info) {
			pass.Reportf(g.Pos(), "goroutine loops forever with no way to observe cancellation; select on a ctx.Done() or stop channel inside the loop")
		}
	}
}

// cancelCtors are the context constructors whose second result is a
// CancelFunc (or CancelCauseFunc) that must not be dropped.
var cancelCtors = []string{"WithCancel", "WithTimeout", "WithDeadline", "WithCancelCause", "WithTimeoutCause", "WithDeadlineCause"}

// checkDiscardedCancel flags `ctx, _ := context.WithCancel(parent)`:
// the one assignment shape where the leak is certain, not suspected.
func checkDiscardedCancel(pass *analysis.Pass, a *ast.AssignStmt) {
	if len(a.Rhs) != 1 || len(a.Lhs) != 2 {
		return
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(pass.Info, call)
	if !isPkgFunc(fn, "context", cancelCtors...) {
		return
	}
	if id, ok := a.Lhs[1].(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(id.Pos(), "context.%s cancel function discarded; the derived context and its timer leak until the parent dies — store the cancel and defer or invoke it", fn.Name())
	}
}
