package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked module package plus the lint
// metadata (suppression directives) the runner needs.
type Package struct {
	// Path is the import path ("repro", "repro/internal/serving", ...).
	Path string
	// Dir is the absolute source directory.
	Dir string
	// Fset is the FileSet all positions resolve against.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types and Info are the type-checker's output for Files.
	Types *types.Package
	Info  *types.Info
	// Module is the module path the loader ran under.
	Module string
	// Tests are the package's test files, type-checked only under
	// Config.Tests: the in-package _test.go files (checked together with
	// Files, so that variant's own objects are fresh ones at the same
	// positions as Types') and the external _test package.
	Tests []*TestVariant

	directives []Directive
	badDirs    []Diagnostic // malformed directives, reported as findings
}

// Config configures a Load.
type Config struct {
	// Fset receives all token positions. Nil means a fresh set.
	Fset *token.FileSet
	// Dir is the module root (the directory holding go.mod, or any tree
	// of Go packages to treat as one module).
	Dir string
	// Module is the import-path prefix of packages under Dir. Empty
	// means read it from Dir/go.mod.
	Module string
	// Tests also type-checks every loaded package's _test.go files into
	// Package.Tests, for rules that tell a test's reference from a
	// production one.
	Tests bool
	// Importer resolves non-module (standard library) imports. Nil
	// means a fresh SourceImporter on Fset. Sharing one across loads
	// amortizes the cost of type-checking the stdlib closure.
	Importer *SourceImporter
}

// Load discovers, parses, and type-checks the module packages matching
// patterns. Supported patterns: "./..." (everything under Dir),
// "./dir/..." (a subtree), "./dir" (one package), and the equivalent
// full import paths. Test files are loaded only under Config.Tests, into
// Package.Tests: paslint's invariants are about production code, and
// the rules that mention tests (errwrap's discarded-error ban) exclude
// them by definition.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	ld, paths, err := newLoader(cfg, patterns)
	if err != nil {
		return nil, err
	}
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := ld.check(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	if ld.cfg.Tests {
		for _, pkg := range out {
			if err := ld.checkTests(pkg); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Match returns the sorted import paths of the module packages matching
// patterns, as Load would select them, without parsing or type-checking
// anything.
func Match(cfg Config, patterns ...string) ([]string, error) {
	_, paths, err := newLoader(cfg, patterns)
	return paths, err
}

// newLoader resolves cfg's defaults, discovers the module's packages and
// matches patterns against them.
func newLoader(cfg Config, patterns []string) (*loader, []string, error) {
	if cfg.Fset == nil {
		cfg.Fset = token.NewFileSet()
	}
	if cfg.Importer == nil {
		cfg.Importer = NewSourceImporter(cfg.Fset)
	}
	abs, err := filepath.Abs(cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: resolving %q: %w", cfg.Dir, err)
	}
	cfg.Dir = abs
	if cfg.Module == "" {
		cfg.Module, err = modulePath(cfg.Dir)
		if err != nil {
			return nil, nil, err
		}
	}
	ld := &loader{cfg: cfg, checked: make(map[string]*Package), busy: make(map[string]bool)}
	if err := ld.discover(); err != nil {
		return nil, nil, err
	}
	paths, err := ld.match(patterns)
	if err != nil {
		return nil, nil, err
	}
	return ld, paths, nil
}

// modulePath reads the module declaration from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: no module path configured and %s/go.mod unreadable: %w", dir, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if mp := strings.TrimSpace(rest); mp != "" {
				return strings.Trim(mp, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
}

type loader struct {
	cfg     Config
	dirs    map[string]string // import path -> absolute dir
	checked map[string]*Package
	busy    map[string]bool
}

// discover walks the module tree recording every directory that holds
// buildable non-test Go files. testdata, vendor, and dot-directories
// are skipped, matching the go tool's convention.
func (ld *loader) discover() error {
	ld.dirs = make(map[string]string)
	return filepath.WalkDir(ld.cfg.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ld.cfg.Dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := ld.cfg.Importer.ctxt.ImportDir(path, 0)
		if err != nil {
			return nil // no buildable Go files here; keep walking
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(ld.cfg.Dir, path)
		if err != nil {
			return err
		}
		ip := ld.cfg.Module
		if rel != "." {
			ip = ld.cfg.Module + "/" + filepath.ToSlash(rel)
		}
		ld.dirs[ip] = path
		return nil
	})
}

// match expands patterns against the discovered package set, returning
// sorted import paths.
func (ld *loader) match(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := make(map[string]bool)
	for _, pat := range patterns {
		norm := strings.TrimPrefix(pat, "./")
		norm = strings.TrimSuffix(norm, "/")
		if norm == "..." || norm == "" && strings.HasSuffix(pat, "...") {
			for ip := range ld.dirs {
				selected[ip] = true
			}
			continue
		}
		// Expand "dir/..." vs exact "dir"; accept both module-relative
		// and fully qualified forms.
		subtree := false
		if rest, ok := strings.CutSuffix(norm, "/..."); ok {
			subtree, norm = true, rest
		}
		full := norm
		if norm == "." {
			full = ld.cfg.Module
		} else if !strings.HasPrefix(norm, ld.cfg.Module) {
			full = ld.cfg.Module + "/" + norm
		}
		n := 0
		for ip := range ld.dirs {
			if ip == full || (subtree && strings.HasPrefix(ip, full+"/")) {
				selected[ip] = true
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("analysis: pattern %q matched no packages", pat)
		}
	}
	out := make([]string, 0, len(selected))
	for ip := range selected {
		out = append(out, ip)
	}
	sort.Strings(out)
	return out, nil
}

// check type-checks one module package (and, recursively, its
// intra-module dependencies), memoized.
func (ld *loader) check(path string) (*Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	if ld.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	ld.busy[path] = true
	defer delete(ld.busy, path)

	dir, ok := ld.dirs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: package %q not found under %s", path, ld.cfg.Dir)
	}
	bp, err := ld.cfg.Importer.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: scanning %s: %w", dir, err)
	}
	pkg := &Package{Path: path, Dir: dir, Module: ld.cfg.Module, Fset: ld.cfg.Fset}
	if pkg.Files, err = ld.parse(dir, bp.GoFiles); err != nil {
		return nil, err
	}
	for _, f := range pkg.Files {
		ds, bad := fileDirectives(ld.cfg.Fset, f)
		pkg.directives = append(pkg.directives, ds...)
		pkg.badDirs = append(pkg.badDirs, bad...)
	}
	if pkg.Types, pkg.Info, err = ld.typeCheck(path, pkg.Files, nil); err != nil {
		return nil, err
	}
	ld.checked[path] = pkg
	return pkg, nil
}

// checkTests type-checks pkg's test files into pkg.Tests. It runs after
// every production package is checked: an external test may import a
// package that imports the one under test. The external test package
// imports the in-package test variant, as the go tool builds it, so an
// export_test.go hook is visible to it.
func (ld *loader) checkTests(pkg *Package) error {
	bp, err := ld.cfg.Importer.ctxt.ImportDir(pkg.Dir, 0)
	if err != nil {
		return fmt.Errorf("analysis: scanning %s: %w", pkg.Dir, err)
	}
	under := pkg.Types
	if len(bp.TestGoFiles) > 0 {
		files, err := ld.parse(pkg.Dir, bp.TestGoFiles)
		if err != nil {
			return err
		}
		own := pkg.Files[:len(pkg.Files):len(pkg.Files)]
		tpkg, info, err := ld.typeCheck(pkg.Path, append(own, files...), nil)
		if err != nil {
			return err
		}
		under = tpkg
		pkg.Tests = append(pkg.Tests, &TestVariant{Files: files, Info: info})
	}
	if len(bp.XTestGoFiles) > 0 {
		files, err := ld.parse(pkg.Dir, bp.XTestGoFiles)
		if err != nil {
			return err
		}
		_, info, err := ld.typeCheck(pkg.Path+"_test", files, under)
		if err != nil {
			return err
		}
		pkg.Tests = append(pkg.Tests, &TestVariant{Files: files, Info: info})
	}
	return nil
}

// parse reads the named files of dir, with comments.
func (ld *loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(ld.cfg.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", filepath.Join(dir, name), err)
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck checks files as the package at path. A non-nil under
// stands in for the module package at its own path in files' imports.
func (ld *loader) typeCheck(path string, files []*ast.File, under *types.Package) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var terrs []error
	conf := types.Config{
		Importer: &moduleImporter{ld: ld, under: under},
		Sizes:    ld.cfg.Importer.conf().Sizes,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	tpkg, _ := conf.Check(path, ld.cfg.Fset, files, info)
	if len(terrs) > 0 {
		// Module packages must check cleanly: analyzers reason over the
		// type info, and holes in it mean silent false negatives.
		return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, terrs[0])
	}
	return tpkg, info, nil
}

// A TestVariant is one type-checked set of a package's test files.
type TestVariant struct {
	// Files are the test files alone.
	Files []*ast.File
	// Info covers Files (and, in the in-package variant, the package's
	// own files again).
	Info *types.Info
}

// conf exposes the sizes used by the stdlib importer so module packages
// check under identical layout assumptions.
func (si *SourceImporter) conf() types.Config {
	return types.Config{Sizes: types.SizesFor("gc", si.ctxt.GOARCH)}
}

// moduleImporter routes intra-module imports back into the loader and
// everything else to the shared stdlib source importer. under, when
// set, answers for its own path in place of the loader's package.
type moduleImporter struct {
	ld    *loader
	under *types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	return mi.ImportFrom(path, "", 0)
}

func (mi *moduleImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if mi.under != nil && path == mi.under.Path() {
		return mi.under, nil
	}
	mod := mi.ld.cfg.Module
	if path == mod || strings.HasPrefix(path, mod+"/") {
		pkg, err := mi.ld.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return mi.ld.cfg.Importer.ImportFrom(path, srcDir, mode)
}
