package everest_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// walkInternal parses every non-test Go file under internal/ except
// internal/condrust — a genuinely parallel dataflow executor — and hands
// each to visit with the name of its package directory.
func walkInternal(t *testing.T, visit func(fset *token.FileSet, pkg string, file *ast.File)) {
	t.Helper()
	walkSources(t, []string{"internal"}, visit)
}

// walkSources is walkInternal over every directory tree in roots.
func walkSources(t *testing.T, roots []string, visit func(fset *token.FileSet, pkg string, file *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
			visit(fset, filepath.Base(filepath.Dir(path)), file)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestInternalServesInline pins the serving structure: every tier runs on
// its caller's goroutine, so no non-test file under internal/ starts a
// goroutine or touches a channel. internal/condrust is the one exception.
func TestInternalServesInline(t *testing.T) {
	var sites []string
	walkInternal(t, func(fset *token.FileSet, _ string, file *ast.File) {
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
	})
	if len(sites) > 0 {
		t.Fatalf("%d goroutine/channel sites outside internal/condrust:\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}

// allowedLocks is every use of a sync or sync/atomic type in non-test
// internal/ outside internal/condrust, keyed by package and struct field
// (or package and declaration for a use outside a struct), with the path
// from outside the owning front that still reaches it. State only a
// front's own lock reaches takes no lock of its own.
var allowedLocks = map[string]string{
	"runtime.Engine.mu":       "the engine's serve lock: concurrent submitters serialize on it",
	"runtime.Future.resolved": "Wait may run on another goroutine than the Submit or Start that resolved the future",
	"fleet.Fleet.mu":          "the fleet's front lock: concurrent submitters serialize on it",
	"region.Federation.mu":    "the region tier's front lock: concurrent submitters serialize on it",
	"virt.Hypervisor.mu":      "the hypervisor is an external actor with concurrent pluggers",
}

// TestInternalLocks is the lock ratchet: the set of sync and sync/atomic
// types in non-test internal/ (outside internal/condrust) must equal
// allowedLocks. A new lock needs an entry naming the outside path that
// reaches its state; a deleted one must leave the list.
func TestInternalLocks(t *testing.T) {
	found := map[string][]string{}
	walkInternal(t, func(fset *token.FileSet, pkg string, file *ast.File) {
		syncNames := map[string]bool{}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != "sync" && path != "sync/atomic" {
				continue
			}
			name := filepath.Base(path)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			syncNames[name] = true
		}
		if len(syncNames) == 0 {
			return
		}
		record := func(key string, n ast.Node) {
			ast.Inspect(n, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && syncNames[x.Name] {
						found[key] = append(found[key], fset.Position(sel.Pos()).String()+": "+x.Name+"."+sel.Sel.Name)
					}
				}
				return true
			})
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				record(pkg+"."+decl.Name.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							record(pkg+"."+spec.Name.Name, spec)
							continue
						}
						for _, field := range st.Fields.List {
							names := []string{"embedded"}
							if len(field.Names) > 0 {
								names = names[:0]
								for _, n := range field.Names {
									names = append(names, n.Name)
								}
							}
							record(pkg+"."+spec.Name.Name+"."+strings.Join(names, ","), field)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							record(pkg+"."+n.Name, spec)
						}
					}
				}
			}
		}
	})
	var extra, missing []string
	for key, sites := range found {
		if _, ok := allowedLocks[key]; !ok {
			extra = append(extra, key+" ("+strings.Join(sites, "; ")+")")
		}
	}
	for key := range allowedLocks {
		if _, ok := found[key]; !ok {
			missing = append(missing, key)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	if len(extra) > 0 {
		t.Errorf("sync types outside the allow-list (state only a front's lock reaches takes no lock of its own; else add an entry with its reason):\n%s",
			strings.Join(extra, "\n"))
	}
	if len(missing) > 0 {
		t.Errorf("allow-listed sync types no longer present (remove them from allowedLocks):\n%s",
			strings.Join(missing, "\n"))
	}
}

// stagingFields names the platform.Device values a deploy is priced
// from, whole-device and region-sized. Device.StagingCost is their one
// reader: no tier outside platform selects one.
var stagingFields = map[string]bool{
	"ConfigBytes": true, "RegionConfigBytes": true,
	"ReconfigSeconds": true, "RegionReconfigSeconds": true,
}

// TestOneStagingPrice is the deploy-price ratchet: no non-test file under
// internal/ outside internal/platform selects a staging field. A tier
// that stages a bitstream reads Device.StagingCost and sends its bytes
// over its own link, so a second deploy price written elsewhere fails
// here.
func TestOneStagingPrice(t *testing.T) {
	var sites []string
	walkInternal(t, func(fset *token.FileSet, pkg string, file *ast.File) {
		if pkg == "platform" {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && stagingFields[sel.Sel.Name] {
				sites = append(sites, fset.Position(sel.Pos()).String()+": ."+sel.Sel.Name)
			}
			return true
		})
	})
	if len(sites) > 0 {
		t.Fatalf("%d staging-field reads outside internal/platform (price through Device.StagingCost):\n%s",
			len(sites), strings.Join(sites, "\n"))
	}
}
