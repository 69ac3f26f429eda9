package everest_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestInternalServesInline pins the serving structure: every tier runs on
// its caller's goroutine, so no non-test file under internal/ starts a
// goroutine or touches a channel. internal/condrust is the one exception —
// it is a genuinely parallel dataflow executor.
func TestInternalServesInline(t *testing.T) {
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "condrust") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var what string
			switch n := n.(type) {
			case *ast.GoStmt:
				what = "go statement"
			case *ast.ChanType:
				what = "channel type"
			case *ast.SendStmt:
				what = "channel send"
			case *ast.SelectStmt:
				what = "select"
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					what = "channel receive"
				}
			}
			if what != "" {
				sites = append(sites, fset.Position(n.Pos()).String()+": "+what)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > 0 {
		t.Fatalf("%d goroutine/channel sites outside internal/condrust:\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}
