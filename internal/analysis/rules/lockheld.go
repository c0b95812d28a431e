package rules

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// lockHeld flags slow or blocking operations performed while a mutex is
// held: Chatter calls (Chat/ChatContext/ChatCompletion/...), HTTP
// round-trips (http.Client methods, package-level http.Get/Post,
// RoundTrip), and channel sends. A lock held across a model call turns
// a 100ms upstream hiccup into a pileup of every goroutine touching the
// guarded state — the serving core's single-flight exists precisely to
// release its lock before the leader computes.
//
// The analysis is a linear scan per function: Lock()/RLock() marks the
// receiver held, Unlock()/RUnlock() releases it, defer Unlock holds it
// to function end. Branch bodies are scanned with a copy of the held
// set; `go func` bodies are skipped (the goroutine does not inherit the
// critical section).
var lockHeld = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "flag Chatter calls, HTTP round-trips, and channel sends performed while a mutex is held",
	Run:  runLockHeld,
}

// chatterMethods are treated as slow upstream calls.
var chatterMethods = map[string]bool{
	"Chat":                  true,
	"ChatContext":           true,
	"ChatCompletion":        true,
	"ChatCompletionContext": true,
	"ChatCompletionStream":  true,
}

func runLockHeld(pass *analysis.Pass) error {
	enclosingFuncs(pass.Files, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
		scanBlock(pass, body.List, map[string]token.Pos{})
	})
	return nil
}

// scanBlock processes stmts in order with the current held set (keyed
// by the lock expression's source text). Nested control flow recurses
// with a copy, so a branch that unlocks and returns does not disturb
// the fall-through path.
func scanBlock(pass *analysis.Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, st := range stmts {
		switch v := st.(type) {
		case *ast.ExprStmt:
			if recv, locks, ok := lockCall(pass.Info, v.X); ok {
				if locks {
					held[recv] = v.Pos()
				} else {
					delete(held, recv)
				}
				continue
			}
			checkStmt(pass, st, held)
		case *ast.DeferStmt:
			// defer mu.Unlock(): the lock stays held for the rest of the
			// scan (that is the point); no banned-op check on the defer
			// itself — it runs after the critical section.
			if _, _, ok := lockCall(pass.Info, v.Call); ok {
				continue
			}
			checkStmt(pass, st, held)
		case *ast.BlockStmt:
			scanBlock(pass, v.List, copyHeld(held))
		case *ast.IfStmt:
			checkHeaderExpr(pass, v.Cond, held)
			scanBlock(pass, v.Body.List, copyHeld(held))
			if v.Else != nil {
				scanBlock(pass, []ast.Stmt{v.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			scanBlock(pass, v.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanBlock(pass, v.Body.List, copyHeld(held))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var bodies [][]ast.Stmt
			switch s := v.(type) {
			case *ast.SwitchStmt:
				for _, c := range s.Body.List {
					bodies = append(bodies, c.(*ast.CaseClause).Body)
				}
			case *ast.TypeSwitchStmt:
				for _, c := range s.Body.List {
					bodies = append(bodies, c.(*ast.CaseClause).Body)
				}
			case *ast.SelectStmt:
				for _, c := range s.Body.List {
					cc := c.(*ast.CommClause)
					if send, ok := cc.Comm.(*ast.SendStmt); ok && len(held) > 0 {
						reportHeld(pass, send.Pos(), "channel send", held)
					}
					bodies = append(bodies, cc.Body)
				}
			}
			for _, b := range bodies {
				scanBlock(pass, b, copyHeld(held))
			}
		default:
			checkStmt(pass, st, held)
		}
	}
}

// lockCall classifies expr as a Lock/RLock (locks=true) or
// Unlock/RUnlock (locks=false) call on a sync (RW)Mutex-ish receiver,
// returning the receiver's source text as the held-set key.
func lockCall(info *types.Info, expr ast.Expr) (recv string, locks bool, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", false, false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "RLock" && name != "Unlock" && name != "RUnlock" {
		return "", false, false
	}
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	return exprText(sel.X), name == "Lock" || name == "RLock", true
}

// checkStmt inspects one statement subtree for banned operations under
// a held lock. Function literals are not descended into: a goroutine or
// stored callback does not run inside the critical section. (A literal
// *called in place* under the lock is rare enough that the scan accepts
// the false negative.)
func checkStmt(pass *analysis.Pass, st ast.Stmt, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(st, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false // the goroutine runs outside the critical section
		case *ast.SendStmt:
			reportHeld(pass, v.Pos(), "channel send", held)
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, v)
			if fn == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if chatterMethods[fn.Name()] {
					reportHeld(pass, v.Pos(), "Chatter call "+fn.Name(), held)
					return true
				}
				if fn.Name() == "RoundTrip" || (isNamedType(sig.Recv().Type(), "net/http", "Client") &&
					(fn.Name() == "Do" || fn.Name() == "Get" || fn.Name() == "Post" || fn.Name() == "PostForm" || fn.Name() == "Head")) {
					reportHeld(pass, v.Pos(), "HTTP round-trip "+fn.Name(), held)
					return true
				}
			}
			if isPkgFunc(fn, "net/http", "Get", "Post", "PostForm", "Head") {
				reportHeld(pass, v.Pos(), "HTTP round-trip http."+fn.Name(), held)
			}
		}
		return true
	})
}

// checkHeaderExpr applies the banned-op scan to a bare expression
// (e.g. an if condition) under the current held set.
func checkHeaderExpr(pass *analysis.Pass, e ast.Expr, held map[string]token.Pos) {
	if e == nil || len(held) == 0 {
		return
	}
	checkStmt(pass, &ast.ExprStmt{X: e}, held)
}

func reportHeld(pass *analysis.Pass, pos token.Pos, what string, held map[string]token.Pos) {
	// One report per site, naming the lexically smallest lock so the
	// message is stable across runs regardless of map order.
	recv := ""
	for r := range held {
		if recv == "" || r < recv {
			recv = r
		}
	}
	pass.Reportf(pos, "%s while holding %s; release the lock before blocking (snapshot state, then call)", what, recv)
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// exprText renders a (small) expression back to source for held-set
// keys and messages.
func exprText(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return "mutex"
	}
	return buf.String()
}
