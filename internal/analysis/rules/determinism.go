package rules

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// determinism enforces seed-reproducibility in the simulation packages
// and bans clock-seeded randomness module-wide.
//
// Inside deterministicPaths it flags:
//   - time.Now (wall-clock reads make outputs run-dependent),
//   - the package-level math/rand source (rand.Intn, rand.Float64, ...;
//     a seeded rand.New(rand.NewSource(seed)) passes),
//   - ranging over a map when the iteration order can reach an output:
//     appending to an outer slice (unless the slice is sorted
//     afterwards in the same block), writing/printing inside the loop,
//     or returning a value derived from the loop variables.
//
// Everywhere it flags seeding a rand source from the clock
// (rand.NewSource(time.Now().UnixNano()) and friends): clock seeds are
// the canonical way nondeterminism sneaks back into a "seeded" system.
var determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock reads, global rand, and order-dependent map iteration in packages that must be bit-deterministic under a seed",
	Run:  runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	inScope := pathInScope(pass.Path, deterministicPaths)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pass.Info, v)
				if isPkgFunc(fn, "math/rand", "NewSource") || isPkgFunc(fn, "math/rand/v2", "NewPCG", "NewChaCha8") {
					if tn := findTimeNow(pass.Info, v); tn != nil {
						pass.Reportf(tn.Pos(), "rand source seeded from the clock; inject the seed so runs are reproducible")
						return true
					}
				}
				if !inScope {
					return true
				}
				if isPkgFunc(fn, "time", "Now") {
					pass.Reportf(v.Pos(), "time.Now in deterministic package %s; outputs must depend only on inputs and the seed", pass.Path)
				}
				if globalRandFunc(fn) {
					pass.Reportf(v.Pos(), "package-level math/rand source (%s.%s) in deterministic package; use a seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
				}
			case *ast.RangeStmt:
				if inScope {
					checkMapRange(pass, v)
				}
			}
			return true
		})
	}
	return nil
}

// findTimeNow returns the first time.Now call in the argument subtree.
func findTimeNow(info *types.Info, call *ast.CallExpr) ast.Node {
	var found ast.Node
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			if c, ok := n.(*ast.CallExpr); ok {
				if isPkgFunc(calleeFunc(info, c), "time", "Now") {
					found = c
					return false
				}
			}
			return true
		})
	}
	return found
}

// globalRandFunc reports whether fn is a math/rand package-level
// function that draws from the shared global source. Constructors are
// exempt: rand.New/NewSource/NewZipf build explicit, seedable sources.
func globalRandFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	pkg := fn.Pkg().Path()
	if pkg != "math/rand" && pkg != "math/rand/v2" {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false // methods on *rand.Rand are seeded by construction
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// checkMapRange flags map iterations whose order can leak into output.
func checkMapRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// Collect the loop variables; order-dependence means their values
	// reach an order-sensitive sink.
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.Info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
			if obj := pass.Info.Uses[id]; obj != nil {
				loopVars[obj] = true // "=" range form
			}
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.ReturnStmt:
			if usesAny(pass.Info, v, loopVars) {
				pass.Reportf(v.Pos(), "return inside map iteration depends on nondeterministic key order; iterate a sorted key slice")
			}
		case *ast.AssignStmt:
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "append" {
					continue
				}
				if _, builtin := pass.Info.Uses[id].(*types.Builtin); !builtin {
					continue // shadowed append, not the builtin
				}
				if i >= len(v.Lhs) {
					continue
				}
				target, ok := v.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Uses[target]
				if obj == nil {
					obj = pass.Info.Defs[target]
				}
				if obj == nil || loopVars[obj] {
					continue
				}
				if sortedAfter(pass, rs, obj) {
					continue
				}
				pass.Reportf(v.Pos(), "append to %s inside map iteration produces nondeterministic order; sort %s afterwards or iterate sorted keys", target.Name, target.Name)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, v); fn != nil {
				name := fn.Name()
				pkg := ""
				if fn.Pkg() != nil {
					pkg = fn.Pkg().Path()
				}
				isWrite := name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune"
				isPrint := pkg == "fmt" && (name == "Fprintf" || name == "Fprintln" || name == "Fprint" || name == "Printf" || name == "Println" || name == "Print")
				if isWrite || isPrint {
					pass.Reportf(v.Pos(), "write inside map iteration emits keys in nondeterministic order; iterate a sorted key slice")
				}
			}
		}
		return true
	})
}

// usesAny reports whether the subtree references any of the objects.
func usesAny(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
			return false
		}
		return !found
	})
	return found
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort*
// call in a statement that follows rs inside the same enclosing block —
// the collect-then-sort idiom that makes map iteration deterministic.
func sortedAfter(pass *analysis.Pass, rs *ast.RangeStmt, obj types.Object) bool {
	for _, f := range pass.Files {
		sorted := false
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok || sorted {
				return !sorted
			}
			idx := -1
			for i, st := range block.List {
				if st == rs || containsNode(st, rs) {
					idx = i
					break
				}
			}
			if idx < 0 {
				return true
			}
			for _, st := range block.List[idx+1:] {
				call, ok := stmtCall(st)
				if !ok {
					continue
				}
				fn := calleeFunc(pass.Info, call)
				if fn == nil || fn.Pkg() == nil {
					continue
				}
				p := fn.Pkg().Path()
				if p != "sort" && p != "slices" {
					continue
				}
				for _, arg := range call.Args {
					argUses := map[types.Object]bool{obj: true}
					if usesAny(pass.Info, arg, argUses) {
						sorted = true
						return false
					}
				}
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}

// containsNode reports whether tree contains target.
func containsNode(tree, target ast.Node) bool {
	found := false
	ast.Inspect(tree, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// stmtCall unwraps a statement to a direct call expression.
func stmtCall(st ast.Stmt) (*ast.CallExpr, bool) {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	return call, ok
}
