package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// Unused is paslint's whole-module rule: it finds what nothing calls.
// A reference counts only if it is in non-test code somewhere in the
// loaded module (examples and the benchmark module included, since the
// loader walks them), and a declaration's references to itself — a
// recursive call, a type naming itself in its own fields or receivers
// — do not count. Inside unusedPaths it reports:
//
//   - a package-level func, method, type, var or const with no
//     reference at all;
//   - an exported one whose every reference is inside its own package
//     (unexport it: the export is surface nobody uses);
//   - a struct field that is never read — written by literals,
//     assignments, ++ or a flag.*Var registration only, or not at all;
//   - a package-level func whose body only forwards its parameters, in
//     order, to another package-level func (call that one instead).
//
// Not reported: methods whose name and signature match a method of an
// interface declared in the module or in a package it imports (they may
// be called through it), fields of a struct that carries tags or is
// handed to encoding/json by its static type (reflection reads them),
// main and init, and blank names. A waiver is a //paslint:allow unused
// line with the reason the code must stay: the library's public API, a
// type a caller must be able to name.
var Unused = &analysis.Analyzer{
	Name:      "unused",
	Doc:       "flag declarations nothing in non-test code uses, exports only their own package uses, fields never read, and one-line forwarding wrappers",
	RunModule: runUnused,
}

// unusedPaths are the module-relative package paths the unused rule
// reports in: the serving side ("." is the module's root package; any
// other entry covers its subtree). References are counted across the
// whole module either way.
var unusedPaths = []string{
	".",
	"cmd",
	"internal/serving",
	"internal/resilience",
	"internal/ring",
	"internal/httpmw",
	"internal/obs",
	"internal/wire",
}

// unusedInScope reports whether the package at path is one unused
// reports in.
func unusedInScope(path, module string) bool {
	rel := "."
	if path != module {
		rel = strings.TrimPrefix(path, module+"/")
	}
	for _, frag := range unusedPaths {
		if rel == frag || frag != "." && strings.HasPrefix(rel, frag+"/") {
			return true
		}
	}
	return false
}

// refCount tallies one object's non-test references by where they sit.
type refCount struct {
	inside, outside int // from its own package / from another one
	reads           int // field references that observe the value
}

type unusedState struct {
	refs       map[types.Object]*refCount
	ifaces     map[string][]*types.Signature // interface method name -> signatures
	reflected  map[*types.Struct]bool        // structs encoding/json walks
	seenIfaces map[*types.Package]bool
	// ownTests and otherTests count test-file references by the
	// declaration's position (a test variant re-declares the package's
	// objects at the same positions): from the declaring package's own
	// tests — in-package or its external _test package — and from any
	// other package's.
	ownTests, otherTests map[token.Pos]int
}

// countTests tallies the references pkg's test files make.
func (st *unusedState) countTests(pkg *analysis.Package) {
	for _, v := range pkg.Tests {
		for _, f := range v.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || v.Info.Uses[id] == nil || v.Info.Uses[id].Pkg() == nil {
					return true
				}
				obj := origin(v.Info.Uses[id])
				if obj.Pkg().Path() == pkg.Path {
					st.ownTests[obj.Pos()]++
				} else {
					st.otherTests[obj.Pos()]++
				}
				return true
			})
		}
	}
}

func runUnused(pass *analysis.ModulePass) error {
	st := &unusedState{
		refs:       make(map[types.Object]*refCount),
		ifaces:     make(map[string][]*types.Signature),
		reflected:  make(map[*types.Struct]bool),
		seenIfaces: make(map[*types.Package]bool),
		ownTests:   make(map[token.Pos]int),
		otherTests: make(map[token.Pos]int),
	}
	for _, pkg := range pass.Packages {
		st.count(pkg)
		st.countTests(pkg)
		st.collectInterfaces(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok {
				st.addInterface(it)
			}
		}
	}
	for _, pkg := range pass.Packages {
		if !unusedInScope(pkg.Path, pkg.Module) {
			continue
		}
		st.reportDecls(pass, pkg)
		st.reportFields(pass, pkg)
		st.reportForwarders(pass, pkg)
	}
	return nil
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// count walks one package's files, tallying every reference that is not
// part of the referenced object's own declaration.
func (st *unusedState) count(pkg *analysis.Package) {
	writes := fieldWrites(pkg)
	// walk tallies the references under n, skipping those to self: the
	// objects n declares.
	walk := func(n ast.Node, self ...types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.Ident:
				if obj := pkg.Info.Uses[v]; obj != nil && !slices.Contains(self, origin(obj)) {
					st.note(pkg, origin(obj), !writes[v])
				}
			case *ast.CallExpr:
				if fn := calleeFunc(pkg.Info, v); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
					for _, arg := range v.Args {
						st.markReflected(pkg.Info.TypeOf(arg), map[types.Type]bool{})
					}
				}
			case *ast.CompositeLit:
				// An unkeyed struct literal stores every field without
				// naming one.
				if s, ok := pkg.Info.TypeOf(v).Underlying().(*types.Struct); ok && len(v.Elts) > 0 {
					if _, keyed := v.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < s.NumFields(); i++ {
							st.note(pkg, s.Field(i), false)
						}
					}
				}
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				self := []types.Object{pkg.Info.Defs[d.Name]}
				if d.Recv != nil {
					// The receiver names its type: that declares a method,
					// it does not use the type.
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] != nil {
							self = append(self, pkg.Info.Uses[id])
						}
						return true
					})
				}
				walk(d, self...)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						walk(ts, pkg.Info.Defs[ts.Name])
					} else {
						walk(spec)
					}
				}
			}
		}
	}
}

// note records one reference to obj from pkg; read is false for a
// store into a field.
func (st *unusedState) note(pkg *analysis.Package, obj types.Object, read bool) {
	if obj.Pkg() == nil {
		return // universe: builtins, error, nil
	}
	rc := st.refs[obj]
	if rc == nil {
		rc = &refCount{}
		st.refs[obj] = rc
	}
	if obj.Pkg() == pkg.Types {
		rc.inside++
	} else {
		rc.outside++
	}
	if read {
		rc.reads++
	}
}

// markReflected marks the struct types reachable from t, the static
// type of a value handed to encoding/json.
func (st *unusedState) markReflected(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		st.markReflected(u.Elem(), seen)
	case *types.Slice:
		st.markReflected(u.Elem(), seen)
	case *types.Array:
		st.markReflected(u.Elem(), seen)
	case *types.Map:
		st.markReflected(u.Elem(), seen)
	case *types.Struct:
		st.reflected[u] = true
		for i := 0; i < u.NumFields(); i++ {
			st.markReflected(u.Field(i).Type(), seen)
		}
	}
}

// fieldWrites returns the identifiers in pkg that name a struct field
// being stored to rather than read: assignment and ++/-- targets,
// struct-literal keys, and &x.f handed to a flag.*Var registration.
func fieldWrites(pkg *analysis.Package) map[*ast.Ident]bool {
	writes := make(map[*ast.Ident]bool)
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(v.X)
			case *ast.CompositeLit:
				if _, ok := pkg.Info.TypeOf(v).Underlying().(*types.Struct); ok {
					for _, elt := range v.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						}
					}
				}
			case *ast.CallExpr:
				if fn := calleeFunc(pkg.Info, v); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "flag" && strings.HasSuffix(fn.Name(), "Var") && len(v.Args) > 0 {
					if u, ok := ast.Unparen(v.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
						target(u.X)
					}
				}
			}
			return true
		})
	}
	return writes
}

// collectInterfaces records the methods of every interface type
// declared at package level in pkg and, transitively, its imports.
func (st *unusedState) collectInterfaces(pkg *types.Package) {
	if pkg == nil || st.seenIfaces[pkg] {
		return
	}
	st.seenIfaces[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				st.addInterface(it)
			}
		}
	}
	for _, imp := range pkg.Imports() {
		st.collectInterfaces(imp)
	}
}

func (st *unusedState) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		st.ifaces[m.Name()] = append(st.ifaces[m.Name()], m.Type().(*types.Signature))
	}
}

// viaInterface reports whether method m could be called through some
// known interface: one has a method of the same name and signature.
func (st *unusedState) viaInterface(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	for _, s := range st.ifaces[m.Name()] {
		if types.Identical(s, sig) {
			return true
		}
	}
	return false
}

// reportDecls checks the package-level declarations of pkg and the
// methods of its named types.
func (st *unusedState) reportDecls(pass *analysis.ModulePass, pkg *analysis.Package) {
	isMain := pkg.Types.Name() == "main"
	api := apiTypes(pkg.Types)
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if name == "_" || name == "init" || isMain && name == "main" {
			continue
		}
		st.reportObj(pass, pkg, obj, isMain || api[obj] || api[constType(obj)])
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if st.viaInterface(m) {
				continue
			}
			st.reportObj(pass, pkg, m, isMain)
		}
	}
}

// reportObj reports obj if nothing outside its own tests uses it or,
// unless mustExport, if only its own package does. An export another
// package's tests use is a test seam — a _test.go file cannot share it —
// and is not reported.
func (st *unusedState) reportObj(pass *analysis.ModulePass, pkg *analysis.Package, obj types.Object, mustExport bool) {
	rc := st.refs[obj]
	if rc == nil {
		rc = &refCount{}
	}
	if rc.outside > 0 || obj.Exported() && st.otherTests[obj.Pos()] > 0 {
		return
	}
	switch {
	case rc.inside == 0 && st.ownTests[obj.Pos()] > 0:
		pass.Reportf(obj.Pos(), "%s %s is used only by its package's tests; move it into them", kindOf(obj), describe(obj))
	case rc.inside == 0:
		pass.Reportf(obj.Pos(), "%s %s is never used; delete it", kindOf(obj), describe(obj))
	case obj.Exported() && !mustExport:
		pass.Reportf(obj.Pos(), "exported %s %s is used only inside package %s; unexport it", kindOf(obj), describe(obj), pkg.Types.Name())
	}
}

// apiTypes returns the type names of pkg that its exported API spells
// out — in an exported func's or method's signature, an exported var's
// type, or an exported field of an exported struct. Such a type stays
// exported while that API does: a caller must be able to name it.
func apiTypes(pkg *types.Package) map[types.Object]bool {
	api := make(map[types.Object]bool)
	seen := make(map[types.Type]bool)
	var mark func(t types.Type)
	mark = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.(type) {
		case *types.Named:
			if u.Obj().Pkg() == pkg {
				api[u.Obj()] = true
			}
			if args := u.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					mark(args.At(i))
				}
			}
		case *types.Pointer:
			mark(u.Elem())
		case *types.Slice:
			mark(u.Elem())
		case *types.Array:
			mark(u.Elem())
		case *types.Chan:
			mark(u.Elem())
		case *types.Map:
			mark(u.Key())
			mark(u.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					mark(tup.At(i).Type())
				}
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Func, *types.Var:
			mark(o.Type())
		case *types.TypeName:
			if s, ok := o.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < s.NumFields(); i++ {
					if s.Field(i).Exported() {
						mark(s.Field(i).Type())
					}
				}
			}
			if named, ok := o.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						mark(m.Type())
					}
				}
			}
		}
	}
	return api
}

// constType returns the type name of an enum-style constant — one whose
// type is a named type of its own package — so the constant is judged
// with its type; nil for anything else.
func constType(obj types.Object) types.Object {
	c, ok := obj.(*types.Const)
	if !ok {
		return nil
	}
	if named, ok := c.Type().(*types.Named); ok && named.Obj().Pkg() == c.Pkg() {
		return named.Obj()
	}
	return nil
}

// reportFields flags struct fields of pkg's named struct types that
// nothing reads.
func (st *unusedState) reportFields(pass *analysis.ModulePass, pkg *analysis.Package) {
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		s, ok := tn.Type().Underlying().(*types.Struct)
		if !ok || st.reflected[s] || hasTags(s) {
			continue
		}
		for i := 0; i < s.NumFields(); i++ {
			f := s.Field(i)
			if f.Embedded() || f.Name() == "_" {
				continue
			}
			rc := st.refs[f]
			switch {
			case rc == nil:
				pass.Reportf(f.Pos(), "field %s.%s is never used by non-test code; delete it", name, f.Name())
			case rc.reads == 0:
				pass.Reportf(f.Pos(), "field %s.%s is written but never read by non-test code; delete it and its stores", name, f.Name())
			}
		}
	}
}

func hasTags(s *types.Struct) bool {
	for i := 0; i < s.NumFields(); i++ {
		if s.Tag(i) != "" {
			return true
		}
	}
	return false
}

// reportForwarders flags package-level funcs whose whole body passes
// their parameters, in order, to another package-level func.
func (st *unusedState) reportForwarders(pass *analysis.ModulePass, pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil || len(fd.Body.List) != 1 || fd.Type.TypeParams != nil {
				continue
			}
			var call *ast.CallExpr
			switch s := fd.Body.List[0].(type) {
			case *ast.ReturnStmt:
				if len(s.Results) == 1 {
					call, _ = ast.Unparen(s.Results[0]).(*ast.CallExpr)
				}
			case *ast.ExprStmt:
				call, _ = ast.Unparen(s.X).(*ast.CallExpr)
			}
			if call == nil {
				continue
			}
			callee := calleeFunc(pkg.Info, call)
			if st.refs[pkg.Info.Defs[fd.Name]] == nil {
				continue // reported as never used
			}
			if callee == nil || recvNamed(callee) != nil || !forwardsParams(pkg.Info, fd, call) {
				continue
			}
			// The callee must carry the wrapper's exact type, or the
			// wrapper is doing a conversion worth its line.
			if !types.Identical(pkg.Info.Defs[fd.Name].Type(), callee.Type()) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "func %s only forwards to %s.%s; call that instead", fd.Name.Name, callee.Pkg().Name(), callee.Name())
		}
	}
}

// forwardsParams reports whether call's arguments are exactly fd's
// parameters in declaration order (a variadic one spread with ...).
func forwardsParams(info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr) bool {
	var params []types.Object
	for _, field := range fd.Type.Params.List {
		for _, n := range field.Names {
			params = append(params, info.Defs[n])
		}
	}
	if len(params) != len(call.Args) {
		return false
	}
	for i, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || info.Uses[id] != params[i] {
			return false
		}
	}
	return true
}

func kindOf(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// describe names obj the way its callers write it: Recv.Method for
// methods, the bare name otherwise.
func describe(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if named := recvNamed(fn); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return obj.Name()
}
