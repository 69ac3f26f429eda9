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
	"strconv"
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
	tests map[string][]*ast.File    // in-package test files, by import path
	info  *types.Info               // one Info for every package
	imp   types.Importer
}

// newInfo returns an Info that records what the reach checks read.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// loadProgram parses and type-checks every non-test Go file of both
// modules, and parses their in-package test files for checkTests.
// Standard-library imports come from compiler export data, which one go
// list run builds or finds in the build cache.
func loadProgram(t *testing.T) *program {
	t.Helper()
	p := &program{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		tests: map[string][]*ast.File{}, info: newInfo()}
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
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			file, err := parser.ParseFile(p.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			test := strings.HasSuffix(path, "_test.go")
			if test && strings.HasSuffix(file.Name.Name, "_test") {
				return nil
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			ipath := mod
			if rel != "." {
				ipath += "/" + filepath.ToSlash(rel)
			}
			if test {
				p.tests[ipath] = append(p.tests[ipath], file)
			} else {
				p.files[ipath] = append(p.files[ipath], file)
			}
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
	p.loadPackages(t, std)
	return p
}

// loadPackages type-checks p.files, importing the standard-library
// packages std (and their dependencies) from compiler export data.
func (p *program) loadPackages(t *testing.T, std map[string]bool) {
	t.Helper()
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
}

// checkTests type-checks package path's non-test and in-package test
// files together, into an Info of their own: their objects are new ones,
// matched to p.info's by declaration position.
func (p *program) checkTests(t *testing.T, path string) *types.Info {
	t.Helper()
	info := newInfo()
	files := append(slices.Clip(p.files[path]), p.tests[path]...)
	if _, err := (&types.Config{Importer: p.imp}).Check(path, p.fset, files, info); err != nil {
		t.Fatalf("type-check %s with its tests: %v", path, err)
	}
	return info
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

// fieldReads adds to read the declaration position of every struct field
// that files read, given their type-checked info. Any use of a field is a
// read except these writes:
//   - an assignment target, x.f = v, x.f += v or x.f++, and the field
//     written through it, s.f in s.f.g = v (s.f a struct value) or in
//     s.f[i] = v, delete(s.f, k) and clear(s.f);
//   - a composite-literal key, T{f: v};
//   - a use whose value only flows back into the same field: the x.f in
//     x.f = append(x.f, v), x.f = x.f[:0], x.f = x.f + 1 or
//     x.f = max(x.f, v).
//
// These count as reads of fields that no selector names: the embedded
// fields a promoted field or method is reached through (a selector, or a
// conversion to an interface whose method is promoted), every field of a
// struct compared with == or != or used as a map key, every field of a
// value handed to package fmt, and every exported field of a value handed
// to package encoding/json.
func fieldReads(files []*ast.File, info *types.Info, read map[token.Pos]bool) {
	field := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj().(*types.Var).Origin()
			}
		}
		return nil
	}
	writes := map[*ast.Ident]bool{}
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[e]; s != nil && s.Kind() == types.FieldVal {
				writes[e.Sel] = true
				if !s.Indirect() {
					write(e.X)
				}
			}
		case *ast.IndexExpr:
			switch info.TypeOf(e.X).Underlying().(type) {
			case *types.Array, *types.Slice, *types.Map:
				write(e.X)
			}
		}
	}
	// self marks the uses of f in e whose value only flows into f.
	var self func(e ast.Expr, f *types.Var)
	self = func(e ast.Expr, f *types.Var) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if field(e) == f {
				writes[e.Sel] = true
			}
		case *ast.BinaryExpr:
			self(e.X, f)
			self(e.Y, f)
		case *ast.SliceExpr:
			self(e.X, f)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && info.Types[e.Fun].IsBuiltin() {
				switch id.Name {
				case "append":
					self(e.Args[0], f)
				case "min", "max":
					for _, arg := range e.Args {
						self(arg, f)
					}
				}
			}
		}
	}
	seen := map[[2]any]bool{}
	var readAll func(typ types.Type, exportedOnly, through bool)
	readAll = func(typ types.Type, exportedOnly, through bool) {
		key := [2]any{typ, [2]bool{exportedOnly, through}}
		if seen[key] {
			return
		}
		seen[key] = true
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				if f := u.Field(i); f.Exported() || !exportedOnly {
					read[f.Origin().Pos()] = true
					readAll(f.Type(), exportedOnly, through)
				}
			}
		case *types.Array:
			readAll(u.Elem(), exportedOnly, through)
		case *types.Pointer:
			if through {
				readAll(u.Elem(), exportedOnly, through)
			}
		case *types.Slice:
			if through {
				readAll(u.Elem(), exportedOnly, through)
			}
		case *types.Map:
			readAll(u.Key(), exportedOnly, false)
			if through {
				readAll(u.Elem(), exportedOnly, through)
			}
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					write(lhs)
				}
				if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
					if f := field(n.Lhs[0]); f != nil {
						self(n.Rhs[0], f)
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readAll(info.TypeOf(n.X), false, false)
				}
			case *ast.CallExpr:
				switch fun := info.Types[n.Fun]; {
				case fun.IsBuiltin():
					if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") {
						write(n.Args[0])
					}
				case !fun.IsType():
					var callee types.Object
					switch f := ast.Unparen(n.Fun).(type) {
					case *ast.Ident:
						callee = info.Uses[f]
					case *ast.SelectorExpr:
						callee = info.Uses[f.Sel]
					}
					if callee == nil || callee.Pkg() == nil {
						break
					}
					switch callee.Pkg().Path() {
					case "fmt":
						for _, arg := range n.Args {
							readAll(info.TypeOf(arg), false, true)
						}
					case "encoding/json":
						for _, arg := range n.Args {
							readAll(info.TypeOf(arg), true, true)
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Var); ok && f.IsField() && !writes[id] {
			read[f.Origin().Pos()] = true
		}
	}
	for _, s := range info.Selections {
		readEmbedded(s.Recv(), s.Index(), read)
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(m.Key(), false, false)
		}
	}
}

// readEmbedded marks read the embedded fields on the path that index, a
// field or method lookup's index sequence, walks from typ.
func readEmbedded(typ types.Type, index []int, read map[token.Pos]bool) {
	for _, i := range index[:max(len(index)-1, 0)] {
		if ptr, ok := typ.Underlying().(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		f := typ.Underlying().(*types.Struct).Field(i)
		read[f.Origin().Pos()] = true
		typ = f.Type()
	}
}

// fieldNames names every struct field declared in files by its path from
// a type declaration ("runtime.Engine.mu", "sdk.Tally.Tenants"), or by its
// position when no type declaration holds it, keyed by declaration
// position.
func fieldNames(fset *token.FileSet, dir string, files []*ast.File, names map[token.Pos]string) {
	var walk func(prefix string, typ ast.Expr)
	walk = func(prefix string, typ ast.Expr) {
		ast.Inspect(typ, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				var ids []*ast.Ident
				if len(fld.Names) == 0 {
					typ := ast.Unparen(fld.Type)
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if sel, ok := typ.(*ast.SelectorExpr); ok {
						typ = sel.Sel
					}
					if idx, ok := typ.(*ast.IndexExpr); ok {
						typ = idx.X
					}
					ids = []*ast.Ident{typ.(*ast.Ident)}
				}
				for _, id := range append(ids, fld.Names...) {
					if _, ok := names[id.Pos()]; !ok {
						names[id.Pos()] = prefix + "." + id.Name
					}
					walk(prefix+"."+id.Name, fld.Type)
				}
			}
			return false
		})
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(dir+"."+n.Name.Name, n.Type)
			case *ast.StructType:
				pos := fset.Position(n.Pos())
				walk(dir+".("+filepath.Base(pos.Filename)+":"+strconv.Itoa(pos.Line)+")", n)
			}
			return true
		})
	}
}

// unreadFields returns the struct fields under internal/ that the read
// rule flags, and the unexported ones that only in-package tests read.
// An exported field must be read by a non-test file of either module. An
// unexported field must be read somewhere: by its package's non-test or
// in-package test files, so test instrumentation may stay.
func (p *program) unreadFields(t *testing.T, prefix string) (flagged, testOnly []string) {
	t.Helper()
	names := map[token.Pos]string{}
	var all []*ast.File
	for path, files := range p.files {
		all = append(all, files...)
		if dir, ok := strings.CutPrefix(path, prefix); ok {
			fieldNames(p.fset, dir, files, names)
		}
	}
	byPkg := map[string][]*types.Var{}
	for _, obj := range p.info.Defs {
		if f, ok := obj.(*types.Var); ok && f.IsField() && strings.HasPrefix(f.Pkg().Path(), prefix) {
			byPkg[f.Pkg().Path()] = append(byPkg[f.Pkg().Path()], f)
		}
	}
	read := map[token.Pos]bool{}
	fieldReads(all, p.info, read)
	// A conversion to an interface reads the embedded fields its methods
	// are promoted through.
	for _, files := range p.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				p.conversions(decl, func(from, to types.Type) {
					if from == nil || to == nil || types.IsInterface(from) || !types.IsInterface(to) {
						return
					}
					it := to.Underlying().(*types.Interface)
					for i := range it.NumMethods() {
						m := it.Method(i)
						_, index, _ := types.LookupFieldOrMethod(from, true, m.Pkg(), m.Name())
						readEmbedded(from, index, read)
					}
				})
			}
		}
	}
	for path, fields := range byPkg {
		var tested map[token.Pos]bool
		for _, f := range fields {
			pos := f.Pos()
			if read[pos] {
				continue
			}
			name := names[pos]
			if f.Exported() {
				flagged = append(flagged, name+": no non-test file reads it")
				continue
			}
			if tested == nil {
				tested = map[token.Pos]bool{}
				if len(p.tests[path]) > 0 {
					fieldReads(append(slices.Clip(p.files[path]), p.tests[path]...), p.checkTests(t, path), tested)
				}
			}
			if tested[pos] {
				testOnly = append(testOnly, name)
			} else {
				flagged = append(flagged, name+": nothing reads it")
			}
		}
	}
	sort.Strings(flagged)
	sort.Strings(testOnly)
	return flagged, testOnly
}

// TestStructFieldsRead keeps write-only state out: every struct field
// declared under internal/ is read, by the rule fieldReads states. An
// exported field must be read by a non-test file of either module; an
// unexported one by any file of its package, so in-package test
// instrumentation may stay, and the test logs those fields. There is no
// allow-list.
func TestStructFieldsRead(t *testing.T) {
	p := loadProgram(t)
	flagged, testOnly := p.unreadFields(t, "everest/internal/")
	if len(testOnly) > 0 {
		t.Logf("%d unexported fields only in-package tests read:\n%s", len(testOnly), strings.Join(testOnly, "\n"))
	}
	if len(flagged) > 0 {
		t.Errorf("%d struct fields nothing reads (delete them with their writes):\n%s", len(flagged), strings.Join(flagged, "\n"))
	}
}

// TestFieldReadRule checks the read rule on a package held in memory: it
// flags exactly the planted write-only fields, and counts as reads the
// uses that name no field by selector.
func TestFieldReadRule(t *testing.T) {
	const src = `package fieldcase

import (
	"encoding/json"
	"fmt"
)

type planted struct{ written, bumped, added, read int }

type key struct{ a, b int }     // a map key: hashing reads every field
type compared struct{ c int }   // compared with ==
type printed struct{ p int }    // handed to fmt
type marshalled struct{ M int } // handed to encoding/json
type inner struct{ promoted int }
type outer struct{ inner } // inner is read through o.promoted
type addressed struct{ a int }

func use() {
	var p planted
	p.written = 1
	p.bumped++
	p.added += 1
	_ = p.read
	_ = map[key]bool{{a: 1, b: 2}: true}
	_ = compared{c: 1} == compared{c: 2}
	fmt.Println(printed{p: 1})
	_, _ = json.Marshal(marshalled{M: 1})
	var o outer
	_ = o.promoted
	var a addressed
	_ = &a.a
}
`
	p := &program{fset: token.NewFileSet(), pkgs: map[string]*types.Package{}, files: map[string][]*ast.File{},
		tests: map[string][]*ast.File{}, info: newInfo()}
	file, err := parser.ParseFile(p.fset, "fieldcase.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	p.files["x/fieldcase"] = []*ast.File{file}
	p.loadPackages(t, map[string]bool{"fmt": true, "encoding/json": true})
	flagged, _ := p.unreadFields(t, "x/")
	want := []string{
		"fieldcase.planted.added: nothing reads it",
		"fieldcase.planted.bumped: nothing reads it",
		"fieldcase.planted.written: nothing reads it",
	}
	if !slices.Equal(flagged, want) {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(flagged, "\n"), strings.Join(want, "\n"))
	}
}
