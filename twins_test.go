package hotgen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoContextlessTwins keeps one entry point per operation: no package
// outside bench/ may export both F and FContext (functions, package-level
// function variables, or methods of one type). Long-running operations
// take a context, so the context-less twin would only be a second name
// for the same work, one that drops the caller's cancellation.
func TestNoContextlessTwins(t *testing.T) {
	fset := token.NewFileSet()
	exported := map[string]map[string]bool{} // package dir -> exported names
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if exported[dir] == nil {
			exported[dir] = map[string]bool{}
		}
		names := exported[dir]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				name := d.Name.Name
				if d.Recv != nil {
					name = receiverType(d.Recv.List[0].Type) + "." + name
				}
				names[name] = true
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						if id.IsExported() {
							names[id.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for dir, names := range exported {
		for name := range names {
			if names[name+"Context"] {
				pairs = append(pairs, dir+": "+name+" and "+name+"Context")
			}
		}
	}
	sort.Strings(pairs)
	if len(pairs) > 0 {
		t.Errorf("%d exported names have a context-less twin; keep only the Context form:\n%s",
			len(pairs), strings.Join(pairs, "\n"))
	}
}

// receiverType names a method receiver's base type, without pointer or
// type parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
