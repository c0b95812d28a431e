package rules

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// errWrap enforces error hygiene at the resilience classification
// boundary:
//
//  1. Discarded error returns: a call whose result tuple includes an
//     error, used as a bare statement, silently drops the error.
//     (defer/go statements, fmt/log printing, and buffer writers whose
//     errors are defined to be nil are exempt; `_ =` stays legal as an
//     explicit, greppable discard.) Applies module-wide: paslint does
//     not load test files, so the non-test scoping is structural.
//  2. Unwrapped classification errors: in packages that import
//     internal/resilience (plus resilience itself), fmt.Errorf calls
//     that format an error value must use %w. Classify walks the
//     errors.Unwrap chain — an error flattened with %v or %s loses its
//     Terminal/Overload/Retryable identity and its Retry-After hint,
//     so the retry executor misclassifies it.
var errWrap = &analysis.Analyzer{
	Name: "errwrap",
	Doc:  "flag discarded error returns and %v/%s-flattened errors crossing the resilience classification boundary",
	Run:  runErrWrap,
}

// errWrapPaths forces rule 2 on for matching packages even when they do
// not import internal/resilience. Fixture tests extend it; the
// import-based detection is what covers the real tree.
var errWrapPaths []string

func runErrWrap(pass *analysis.Pass) error {
	wrapScope := pathInScope(pass.Path, errWrapPaths) || importsResilience(pass.Pkg) || strings.HasSuffix(pass.Path, "internal/resilience")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(v.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				checkDiscardedError(pass, call)
			case *ast.CallExpr:
				if wrapScope {
					checkErrorfWrap(pass, v)
				}
			}
			return true
		})
	}
	return nil
}

func importsResilience(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	for _, imp := range pkg.Imports() {
		if strings.HasSuffix(imp.Path(), "internal/resilience") {
			return true
		}
	}
	return false
}

// checkDiscardedError flags expression-statement calls that drop an
// error result.
func checkDiscardedError(pass *analysis.Pass, call *ast.CallExpr) {
	results := resultTypes(pass.Info, call)
	if results == nil {
		return
	}
	errIdx := -1
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			errIdx = i
			break
		}
	}
	if errIdx < 0 {
		return
	}
	if fn := calleeFunc(pass.Info, call); fn != nil && exemptDiscard(pass, call, fn) {
		return
	}
	pass.Reportf(call.Pos(), "call discards its error result; handle it, or assign to _ to make the discard explicit")
}

// exemptDiscard lists callees whose error results are conventionally
// ignored: terminal printing, loggers, the in-memory writers whose
// Write errors are documented to always be nil, and fmt.Fprint* to any
// destination that is not a real file. (A strings.Builder, a tabwriter,
// an SSE http.ResponseWriter — none of those can usefully propagate a
// write error; a file on disk can, so *os.File destinations other than
// the process streams stay flagged.)
func exemptDiscard(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) bool {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if pkg == "fmt" && strings.HasPrefix(fn.Name(), "Print") {
		return true
	}
	if pkg == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") && len(call.Args) > 0 {
		return !isRealFileDest(pass, call.Args[0])
	}
	if named := recvNamed(fn); named != nil {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "strings.Builder", "bytes.Buffer", "log.Logger":
				return true
			}
		}
	}
	return false
}

// isRealFileDest reports whether the writer expression is a *os.File
// other than the os.Stdout/os.Stderr process streams.
func isRealFileDest(pass *analysis.Pass, dest ast.Expr) bool {
	dest = ast.Unparen(dest)
	if sel, ok := dest.(*ast.SelectorExpr); ok {
		if id, ok2 := sel.X.(*ast.Ident); ok2 {
			if pn, ok3 := pass.Info.Uses[id].(*types.PkgName); ok3 && pn.Imported().Path() == "os" &&
				(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr") {
				return false
			}
		}
	}
	tv, ok := pass.Info.Types[dest]
	if !ok {
		return false
	}
	return isNamedType(tv.Type, "os", "File")
}

// checkErrorfWrap flags fmt.Errorf calls that format an error value
// with a non-wrapping verb.
func checkErrorfWrap(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if !isPkgFunc(fn, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs := formatVerbs(format)
	args := call.Args[1:]
	for i, arg := range args {
		if i >= len(verbs) {
			break
		}
		tv, ok := pass.Info.Types[arg]
		if !ok || !isErrorType(tv.Type) {
			continue
		}
		if verbs[i] != 'w' {
			pass.Reportf(arg.Pos(), "error formatted with %%%c loses its classification across the resilience boundary; wrap with %%w", verbs[i])
		}
	}
}

// formatVerbs extracts the verb letter for each argument-consuming
// directive in a printf format string. Width/precision stars also
// consume arguments and are returned as '*'.
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		for i < len(format) {
			c := format[i]
			if c == '%' {
				break // literal %%
			}
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == ' ' || c == '#' {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs
}
