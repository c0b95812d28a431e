package rules

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/lite"
)

// hotPathAlloc polices functions marked with //paslint:hotpath — the
// ones whose per-call allocation budget is an architectural decision,
// not an implementation detail. The serving core's cache-hit path is
// the canonical example: the paper's p50 numbers assume a hit costs a
// map lookup, and every stray allocation there shows up as GC pressure
// multiplied by the hit rate. Inside a marked function the rule flags:
//
//   - composite literals (and their &-addresses) that escape the
//     function, per the lite escape walk;
//   - fmt.Sprintf / Sprint / Sprintln / Errorf / Appendf calls;
//   - string<->[]byte/[]rune conversions, each a copy;
//   - time.Now, which belongs behind the injected clock anyway.
//
// Nested function literals are exempt: a closure constructed on the
// hot path is already an allocation the rule flags at its literal; its
// body runs elsewhere. The marker rides on the func line or directly
// above it (end of the doc comment), and a marker that matches no
// function is itself a finding — a stale marker polices nothing.
var hotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag allocation-prone constructs in functions marked //paslint:hotpath",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *analysis.Pass) error {
	marked := map[*ast.FuncDecl]bool{}
	used := map[int]bool{} // index into pass.Directives

	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			funcLine := pass.Fset.Position(fd.Pos()).Line
			for i, d := range pass.Directives {
				if d.Verb != analysis.VerbHotPath || d.File != fname {
					continue
				}
				if d.Line == funcLine || d.Line == funcLine-1 {
					marked[fd] = true
					used[i] = true
				}
			}
		}
	}

	for i, d := range pass.Directives {
		if d.Verb == analysis.VerbHotPath && !used[i] {
			pass.Reportf(directivePos(pass.Fset, d), "paslint:hotpath marks no function; put it on the func line or the line above")
		}
	}

	for fd := range marked {
		checkHotBody(pass, fd)
	}
	return nil
}

// directivePos recovers a token.Pos for a directive from its
// file/line, so stale markers can be reported in place.
func directivePos(fset *token.FileSet, d analysis.Directive) token.Pos {
	var pos token.Pos = token.NoPos
	fset.Iterate(func(tf *token.File) bool {
		if tf.Name() == d.File && d.Line >= 1 && d.Line <= tf.LineCount() {
			pos = tf.LineStart(d.Line)
			return false
		}
		return true
	})
	return pos
}

// sprintFuncs are the fmt allocators flagged on hot paths.
var sprintFuncs = []string{"Sprintf", "Sprint", "Sprintln", "Errorf", "Appendf"}

func checkHotBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	lite.Inspect(fd.Body, func(stack []ast.Node) bool {
		switch v := stack[len(stack)-1].(type) {
		case *ast.FuncLit:
			// The closure itself is a composite allocation; its body runs
			// off the marked path.
			if lite.Escapes(stack, pass.Info) {
				pass.Reportf(v.Pos(), "escaping function literal allocates on a hotpath function; hoist the closure or pass a method value")
			}
			return false
		case *ast.CompositeLit:
			// Judged at the literal; &T{} is handled by the escape walk
			// looking through the address-of.
			if lite.Escapes(stack, pass.Info) {
				pass.Reportf(v.Pos(), "escaping composite literal allocates on a hotpath function; reuse a buffer or hoist it")
			}
		case *ast.CallExpr:
			checkHotCall(pass, v)
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Conversions: string([]byte), []byte(string), []rune(string).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := pass.Info.Types[call.Args[0]].Type
		if isStringByteConv(to, from) {
			pass.Reportf(call.Pos(), "string<->bytes conversion copies on a hotpath function; keep one representation end to end")
		}
		return
	}
	fn := calleeFunc(pass.Info, call)
	switch {
	case isPkgFunc(fn, "fmt", sprintFuncs...):
		pass.Reportf(call.Pos(), "fmt.%s allocates on a hotpath function; use strconv or a pre-sized append", fn.Name())
	case isPkgFunc(fn, "time", "Now"):
		pass.Reportf(call.Pos(), "time.Now on a hotpath function; thread the injected clock (Config.Now) instead")
	}
}

// isStringByteConv reports whether a conversion crosses the
// string/[]byte (or string/[]rune) boundary in either direction.
func isStringByteConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isStringType(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isStringType(from))
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
