package lite

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheck parses and type-checks one source file, returning the file
// and the info the helpers consume.
func typecheck(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "lite_test_src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("litetest", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, f, info
}

// funcBody finds the named function's body.
func funcBody(t *testing.T, f *ast.File, name string) *ast.BlockStmt {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	t.Fatalf("no function %q in fixture", name)
	return nil
}

func TestHasCancellationSignal(t *testing.T) {
	_, f, info := typecheck(t, `package p

import "context"

func sleeper(ctx context.Context) error { return ctx.Err() }

func withReceive(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		}
	}
}

func withDelegate(ctx context.Context) {
	for {
		if err := sleeper(ctx); err != nil {
			return
		}
	}
}

func delegateNoExit(ctx context.Context) {
	for {
		_ = sleeper(ctx)
	}
}

func spinner() {
	n := 0
	for {
		n++
	}
}
`)
	cases := map[string]bool{
		"withReceive":    true,
		"withDelegate":   true,
		"delegateNoExit": false,
		"spinner":        false,
	}
	for name, want := range cases {
		if got := HasCancellationSignal(funcBody(t, f, name), info); got != want {
			t.Errorf("HasCancellationSignal(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestInfiniteLoops(t *testing.T) {
	_, f, _ := typecheck(t, `package p

func loops() {
	for {
	}
	for i := 0; ; i++ {
	}
	for i := 0; i < 3; i++ {
	}
	go func() {
		for {
		}
	}()
}
`)
	got := InfiniteLoops(funcBody(t, f, "loops"))
	if len(got) != 2 {
		t.Fatalf("InfiniteLoops found %d loops, want 2 (bounded loop and go-literal loop excluded)", len(got))
	}
}

func TestReturnsBefore(t *testing.T) {
	_, f, _ := typecheck(t, `package p

import "time"

func deferred(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	if d > 0 {
		return
	}
	return
}

func leaky(d time.Duration, early bool) {
	t := time.NewTimer(d)
	if early {
		return // not stopped on this path
	}
	t.Stop()
}

func fallsOff(d time.Duration) {
	t := time.NewTimer(d)
	_ = t
}
`)
	isStop := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Stop"
	}
	creation := func(body *ast.BlockStmt) ast.Stmt { return body.List[0] }

	for name, want := range map[string]int{"deferred": 0, "leaky": 1, "fallsOff": 1} {
		body := funcBody(t, f, name)
		got := ReturnsBefore(body, creation(body), isStop)
		if len(got) != want {
			t.Errorf("ReturnsBefore(%s) reported %d unresolved exits, want %d", name, len(got), want)
		}
	}
}

func TestEscapes(t *testing.T) {
	_, f, info := typecheck(t, `package p

var sink []int

type box struct{ v []int }

func escaping(b *box) []int {
	b.v = []int{1}        // stored through a pointer: escapes
	sink = []int{2}       // package-level: escapes
	return []int{3}       // returned: escapes
}

func local() int {
	xs := []int{1, 2, 3} // fresh local: stays
	total := 0
	for _, x := range xs {
		total += x
	}
	for _, x := range []int{4, 5} { // ranged in place: stays
		total += x
	}
	return total
}
`)
	counts := map[bool]int{}
	for _, name := range []string{"escaping", "local"} {
		Inspect(funcBody(t, f, name), func(stack []ast.Node) bool {
			if lit, ok := stack[len(stack)-1].(*ast.CompositeLit); ok && IsSliceOrMapLit(lit, info) {
				counts[Escapes(stack, info)]++
			}
			return true
		})
	}
	if counts[true] != 3 || counts[false] != 2 {
		t.Errorf("escape classification = %d escaping / %d local, want 3 / 2", counts[true], counts[false])
	}
}

// IsSliceOrMapLit reports whether lit's type is a slice or map — the
// composite kinds whose backing store always allocates.
func IsSliceOrMapLit(lit *ast.CompositeLit, info *types.Info) bool {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}
