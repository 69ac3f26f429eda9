package everest_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// modules maps each module's import path to its root directory: the root
// module (library, CLIs, examples) and the benchmark.
var modules = map[string]string{"everest": ".", "everest/bench": "bench"}

// program is the type-checked non-test source of both modules.
type program struct {
	fset  *token.FileSet
	pkgs  map[string]*types.Package // by import path
	files map[string][]*ast.File    // by import path
	info  *types.Info               // one Info for every package
	imp   types.Importer
}

// loadProgram parses and type-checks every non-test Go file of both
// modules. Standard-library imports come from compiler export data, which
// one go list run builds or finds in the build cache.
func loadProgram(t *testing.T) *program {
	t.Helper()
	p := &program{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		info: &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Instances: map[*ast.Ident]types.Instance{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
		}}
	std := map[string]bool{}
	for mod, root := range modules {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == root {
					return nil
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(p.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			ipath := mod
			if rel != "." {
				ipath += "/" + filepath.ToSlash(rel)
			}
			p.files[ipath] = append(p.files[ipath], file)
			for _, spec := range file.Imports {
				if path := strings.Trim(spec.Path.Value, `"`); !strings.HasPrefix(path, "everest") {
					std[path] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, export, ok := strings.Cut(line, "\t"); ok {
			exports[path] = export
		}
	}
	gc := importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	var check func(path string) (*types.Package, error)
	p.imp = importerFunc(func(path string) (*types.Package, error) {
		if p.files[path] == nil {
			return gc.Import(path)
		}
		return check(path)
	})
	check = func(path string) (*types.Package, error) {
		if pkg := p.pkgs[path]; pkg != nil {
			return pkg, nil
		}
		pkg, err := (&types.Config{Importer: p.imp}).Check(path, p.fset, p.files[path], p.info)
		p.pkgs[path] = pkg
		return pkg, err
	}
	paths := make([]string, 0, len(p.files))
	for path := range p.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	return p
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportedSurface returns every exported package-level name and every
// exported concrete method under internal/, keyed by its object, with the
// name a report prints ("runtime.Engine.Submit").
func (p *program) exportedSurface() map[types.Object]string {
	surface := map[types.Object]string{}
	for path, pkg := range p.pkgs {
		dir, ok := strings.CutPrefix(path, "everest/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				surface[obj] = dir + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					surface[m] = dir + "." + name + "." + m.Name()
				}
			}
		}
	}
	return surface
}

// declOwners returns the objects a top-level declaration declares: a use
// inside a name's own declaration, or a type's use inside its own
// methods, does not reach it.
func (p *program) declOwners(decl ast.Decl) []types.Object {
	var owners []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		owners = append(owners, p.info.Defs[d.Name])
		if fn, ok := p.info.Defs[d.Name].(*types.Func); ok {
			if recv := fn.Signature().Recv(); recv != nil {
				typ := recv.Type()
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				if named, ok := typ.(*types.Named); ok {
					owners = append(owners, named.Origin().Obj())
				}
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				owners = append(owners, p.info.Defs[s.Name])
			case *ast.ValueSpec:
				for _, name := range s.Names {
					owners = append(owners, p.info.Defs[name])
				}
			}
		}
	}
	return owners
}

// reached returns the objects of surface that a non-test file reaches:
// it uses the object outside the object's own declaration, or it converts
// a value to an interface whose method the object implements (a type
// argument counts as converted to its type parameter's constraint). Any value
// converted to an interface also reaches the String, Error and Unwrap
// methods that fmt and errors call on it.
func (p *program) reached(t *testing.T, surface map[types.Object]string) map[types.Object]bool {
	t.Helper()
	hit := map[types.Object]bool{}
	fmtPkg, err := p.imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))}, nil)
	printed := []types.Type{fmtPkg.Scope().Lookup("Stringer").Type(), errType, unwrap.Complete()}
	implement := func(from, iface types.Type) {
		it := iface.Underlying().(*types.Interface)
		for i := range it.NumMethods() {
			m := it.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(from, true, m.Pkg(), m.Name()); obj != nil {
				hit[origin(obj)] = true
			}
		}
	}
	// printable marks the String, Error and Unwrap methods fmt and errors
	// may call on an interface value: its own, and those of its exported
	// fields and elements, which fmt prints.
	seen := map[types.Type]bool{}
	var printable func(typ types.Type)
	printable = func(typ types.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for _, iface := range printed {
			implement(typ, iface)
		}
		switch u := typ.Underlying().(type) {
		case *types.Pointer:
			printable(u.Elem())
		case *types.Slice:
			printable(u.Elem())
		case *types.Array:
			printable(u.Elem())
		case *types.Map:
			printable(u.Key())
			printable(u.Elem())
		case *types.Struct:
			for i := range u.NumFields() {
				if f := u.Field(i); f.Exported() {
					printable(f.Type())
				}
			}
		}
	}
	convert := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) || !types.IsInterface(to) {
			return
		}
		implement(from, to)
		printable(from)
	}
	// Instantiating a generic function or type converts each type
	// argument to its type parameter's constraint.
	for id, inst := range p.info.Instances {
		var params *types.TypeParamList
		obj := p.info.Uses[id]
		if obj == nil {
			continue
		}
		switch typ := obj.Type().(type) {
		case *types.Signature:
			params = typ.TypeParams()
		case *types.Named:
			params = typ.TypeParams()
		}
		for i := range params.Len() {
			implement(inst.TypeArgs.At(i), params.At(i).Constraint())
		}
	}
	for _, files := range p.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				owners := p.declOwners(decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil {
							obj = origin(obj)
							if _, ok := surface[obj]; ok && !slices.Contains(owners, obj) {
								hit[obj] = true
							}
						}
					}
					return true
				})
				p.conversions(decl, convert)
			}
		}
	}
	return hit
}

// conversions calls convert for every value decl converts to another type
// implicitly (assignment, argument, return, composite-literal element,
// send) or explicitly (a conversion call).
func (p *program) conversions(decl ast.Decl, convert func(from, to types.Type)) {
	typeOf := func(e ast.Expr) types.Type { return p.info.TypeOf(e) }
	// pair converts each value to its target, spreading one tuple value.
	pair := func(targets []types.Type, values []ast.Expr) {
		if len(values) == 1 && len(targets) > 1 {
			if tuple, ok := typeOf(values[0]).(*types.Tuple); ok {
				for i := range min(tuple.Len(), len(targets)) {
					convert(tuple.At(i).Type(), targets[i])
				}
			}
			return
		}
		for i, v := range values {
			if i < len(targets) {
				convert(typeOf(v), targets[i])
			}
		}
	}
	var sigs []*types.Signature // enclosing function signatures
	var stack []ast.Node
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				sigs = sigs[:len(sigs)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			sigs = append(sigs, p.info.Defs[n.Name].Type().(*types.Signature))
		case *ast.FuncLit:
			sigs = append(sigs, typeOf(n).(*types.Signature))
		case *ast.ReturnStmt:
			res := sigs[len(sigs)-1].Results()
			targets := make([]types.Type, res.Len())
			for i := range targets {
				targets[i] = res.At(i).Type()
			}
			pair(targets, n.Results)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				targets := make([]types.Type, len(n.Lhs))
				for i, lhs := range n.Lhs {
					targets[i] = typeOf(lhs)
				}
				pair(targets, n.Rhs)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				typ := typeOf(n.Type)
				targets := make([]types.Type, len(n.Names))
				for i := range targets {
					targets[i] = typ
				}
				pair(targets, n.Values)
			}
		case *ast.SendStmt:
			if ch, ok := typeOf(n.Chan).Underlying().(*types.Chan); ok {
				convert(typeOf(n.Value), ch.Elem())
			}
		case *ast.CallExpr:
			tv := p.info.Types[n.Fun]
			if tv.IsType() {
				pair([]types.Type{tv.Type}, n.Args)
				return true
			}
			if tv.IsBuiltin() {
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 1 && n.Ellipsis == token.NoPos {
					if s, ok := typeOf(n.Args[0]).Underlying().(*types.Slice); ok {
						for _, arg := range n.Args[1:] {
							convert(typeOf(arg), s.Elem())
						}
					}
				}
				return true
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			var targets []types.Type
			for i := range max(params.Len(), len(n.Args)) {
				switch {
				case sig.Variadic() && i >= params.Len()-1 && n.Ellipsis == token.NoPos:
					targets = append(targets, params.At(params.Len()-1).Type().(*types.Slice).Elem())
				case i < params.Len():
					targets = append(targets, params.At(i).Type())
				}
			}
			pair(targets, n.Args)
		case *ast.CompositeLit:
			typ := typeOf(n)
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			for i, elt := range n.Elts {
				key, value := ast.Expr(nil), elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					key, value = kv.Key, kv.Value
				}
				switch u := typ.Underlying().(type) {
				case *types.Struct:
					if key != nil {
						if f, ok := p.info.Uses[key.(*ast.Ident)].(*types.Var); ok {
							convert(typeOf(value), f.Type())
						}
					} else if i < u.NumFields() {
						convert(typeOf(value), u.Field(i).Type())
					}
				case *types.Slice:
					convert(typeOf(value), u.Elem())
				case *types.Array:
					convert(typeOf(value), u.Elem())
				case *types.Map:
					convert(typeOf(key), u.Key())
					convert(typeOf(value), u.Elem())
				}
			}
		}
		return true
	})
}

// configTypes names each front's config struct by package directory.
var configTypes = map[string]string{"runtime": "EngineConfig", "fleet": "Config", "region": "Config", "stream": "Config"}

// TestFrontSurfaceReached keeps unreached surface out, the serving
// fronts' and every other package's, checked by type over the non-test
// files of both modules. Every exported package-level name and exported
// method under internal/ must be reached: a non-test file uses it
// outside its own declaration (its own package counts; unexporting a name
// removes no code), or converts a value to an interface whose method it
// implements (container/heap reaches a heap's Len, Less, Swap, Push and
// Pop). There is no allow-list. Every exported field of the config
// structs in configTypes must be set by a non-test file outside its
// package, as a composite-literal key or an assignment target: a knob
// nothing turns is deleted, not kept.
func TestFrontSurfaceReached(t *testing.T) {
	p := loadProgram(t)
	surface := p.exportedSurface()
	hit := p.reached(t, surface)
	var wrong []string
	for obj, name := range surface {
		if !hit[obj] {
			wrong = append(wrong, name+": no non-test file reaches it (delete it)")
		}
	}

	// A config field is set where a non-test file outside its package
	// keys it in a composite literal or assigns to it.
	fields := map[*types.Var]string{}
	for dir, typ := range configTypes {
		st := p.pkgs["everest/internal/"+dir].Scope().Lookup(typ).Type().Underlying().(*types.Struct)
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() {
				fields[f] = dir + "." + typ + "." + f.Name()
			}
		}
	}
	set := map[*types.Var]bool{}
	for path, files := range p.files {
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					targets = []ast.Expr{n.Key}
				case *ast.AssignStmt:
					targets = n.Lhs
				}
				for _, e := range targets {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						e = sel.Sel
					}
					if id, ok := e.(*ast.Ident); ok {
						if f, ok := p.info.Uses[id].(*types.Var); ok && f.Pkg().Path() != path {
							set[f] = true
						}
					}
				}
				return true
			})
		}
	}
	for f, name := range fields {
		if !set[f] {
			wrong = append(wrong, name+": no non-test file outside its package sets it")
		}
	}
	sort.Strings(wrong)
	if len(wrong) > 0 {
		t.Errorf("%d exported names checked; surface reach:\n%s", len(surface), strings.Join(wrong, "\n"))
	}
}
