package testkit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// exportedCeiling is the number of exported functions, methods of exported
// types, constants and variables in the non-test files under internal/,
// testkit left out. It may only fall: a change that deletes exported names
// lowers it to the new count, and one that adds names must delete as many.
const exportedCeiling = 419

// TestExportedSurface holds the exported surface of internal/ to
// exportedCeiling, so unused API does not pile up between clean-ups. Types
// are not counted: a type is cheap and mostly carries the names counted here.
func TestExportedSurface(t *testing.T) {
	perPkg := map[string]int{}
	total := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testkit" || d.Name() == "testdata" {
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
		n := 0
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv.List[0].Type)) {
					n++
				}
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
		perPkg[filepath.Dir(path)] += n
		total += n
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case total > exportedCeiling:
		t.Errorf("internal/ exports %d names, over the ceiling of %d: delete or unexport as many as you add (per package: %v)", total, exportedCeiling, perPkg)
	case total < exportedCeiling:
		t.Errorf("internal/ exports %d names, under the ceiling of %d: lower exportedCeiling to %d", total, exportedCeiling, total)
	}
}

// receiverExported reports whether a method's receiver names an exported
// type (T, *T, T[P] or *T[P]).
func receiverExported(expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}
