package pas

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// docTestName is a test, fuzz target or benchmark named in a document.
	docTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	// docFilePath is a backticked file path, with or without a :line.
	docFilePath = regexp.MustCompile("`([^`\\s]+\\.(?:go|json|md|golden|sh|yml|yaml|txt|jsonl|mod))(?::[0-9,-]+)?`")
	// testFunc is a top-level test, fuzz target or benchmark in a _test.go file.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// docCode is a backticked span of a document.
	docCode = regexp.MustCompile("`([^`\n]+)`")
	// docGoIdent is a pkg.Ident or pkg.Type.Member in a backticked span:
	// an exported identifier, so that a metric or span name such as
	// serving.hit_ratio is not read as one.
	docGoIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// notRepoFiles are the backticked names the documents use that name no
// file of the repository.
var notRepoFiles = map[string]bool{
	"_test.go":  true, // the suffix every test file ends in
	"meta.json": true, // what internal/checkpoint writes into a build's store
}

// TestDocsCiteOnlyWhatExists: every test, fuzz target and benchmark that
// DESIGN.md or README.md names is defined in a _test.go file of the
// repository, and every backticked file they cite is one of its files,
// by its path from the root or by a tail of it (`resilience/retry.go`,
// `chatscan.go`). A deletion or a rename that leaves a citation behind
// fails here.
func TestDocsCiteOnlyWhatExists(t *testing.T) {
	var files []string // slash-separated, from the repository root
	defined := map[string]bool{}
	declared := map[string]bool{} // pkg.Ident and pkg.Type.Member, by package name
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		files = append(files, path)
		if !strings.HasSuffix(path, ".go") || strings.Contains(path, "/testdata/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				defined[string(m[1])] = true
			}
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declare(declared, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(cited string) bool {
		for _, f := range files {
			if f == cited || strings.HasSuffix(f, "/"+cited) {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		line := func(at int) int { return bytes.Count(text[:at], []byte("\n")) + 1 }
		for _, at := range docTestName.FindAllIndex(text, -1) {
			if name := string(text[at[0]:at[1]]); !defined[name] {
				t.Errorf("%s:%d names %s, which no test file defines", doc, line(at[0]), name)
			}
		}
		for _, code := range docCode.FindAllSubmatchIndex(text, -1) {
			for _, m := range docGoIdent.FindAllStringSubmatch(string(text[code[2]:code[3]]), -1) {
				pkg, ident, member := m[1], m[2], m[3]
				if !declared[pkg] {
					continue // the standard library's, or no package
				}
				if cited := pkg + "." + ident; !declared[cited] || member != "" && !declared[cited+"."+member] {
					t.Errorf("%s:%d cites %s, which the module does not declare", doc, line(code[0]), m[0])
				}
			}
		}
		for _, at := range docFilePath.FindAllSubmatchIndex(text, -1) {
			for _, cited := range expandBraces(string(text[at[2]:at[3]])) {
				if !notRepoFiles[cited] && !exists(cited) {
					t.Errorf("%s:%d cites %s, which is no file of the repository", doc, line(at[0]), cited)
				}
			}
		}
	}
}

// declare adds f's package name and its top-level identifiers to
// declared, as pkg.Ident, with each type's methods, named fields and
// interface methods as pkg.Type.Member.
func declare(declared map[string]bool, f *ast.File) {
	pkg := f.Name.Name
	declared[pkg] = true
	add := func(names ...string) { declared[pkg+"."+strings.Join(names, ".")] = true }
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name.Name)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				add(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						add(n.Name)
					}
				case *ast.TypeSpec:
					add(spec.Name.Name)
					members := new(ast.FieldList)
					switch t := spec.Type.(type) {
					case *ast.StructType:
						members = t.Fields
					case *ast.InterfaceType:
						members = t.Methods
					}
					for _, m := range members.List {
						for _, n := range m.Names {
							add(spec.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

// expandBraces expands one {a,b,...} group the way a shell does, so
// `BENCH_{serving,rolling}.json` cites each of its files.
func expandBraces(s string) []string {
	open, end := strings.IndexByte(s, '{'), strings.IndexByte(s, '}')
	if open < 0 || end < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, s[:open]+alt+s[end+1:])
	}
	return out
}
