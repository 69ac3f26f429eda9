package everest_test

import (
	"errors"
	"go/ast"
	"go/token"
	"reflect"
	"sort"
	"strings"
	"testing"

	"everest/internal/dataset"
	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/region"
	"everest/internal/runtime"
	"everest/internal/sdk"
)

// lifeClass is what a front's exported method may do once the front is
// shut down.
type lifeClass int

const (
	readOnly  lifeClass = iota // reads state, before and after Shutdown
	lifecycle                  // Start refuses with ErrShutDown; Shutdown again changes nothing
	refuses                    // returns runtime.ErrShutDown and changes nothing
	noop                       // returns and changes nothing (Drain: Shutdown drained)
)

// lifeProbe is one engine, one fleet and one federation that each served
// a workflow and were shut down, with everything their calls could write.
type lifeProbe struct {
	eng      *runtime.Engine
	engNodes []*platform.Node
	fl       *fleet.Fleet
	fed      *region.Federation
	reg, cat *platform.Registry
	handle   *region.Handle
	traced   int
}

// lifeState is every observable a mutating call could move: stats,
// health, trace, registries, dataset stores and node state.
type lifeState struct {
	Engine   runtime.EngineStats
	Health   []platform.NodeHealth
	Fleet    fleet.Stats
	Fed      region.Stats
	Traced   int
	Reg, Cat []string
	Resident [2]bool
	Online   []bool
	Slow     []float64
	Failed   []bool
}

// lateRef is the partition the refused placements name.
var lateRef = dataset.Ref{Name: "probe/late", Bytes: 1 << 20}

func (p *lifeProbe) state() lifeState {
	s := lifeState{
		Engine: p.eng.Stats(), Health: p.eng.Health(),
		Fleet: p.fl.Stats(), Fed: p.fed.Stats(), Traced: p.traced,
		Reg: p.reg.IDs(), Cat: p.cat.IDs(),
		Resident: [2]bool{p.fl.DatasetResident(0, lateRef), p.fed.DatasetResident(0, lateRef)},
	}
	sort.Strings(s.Reg)
	sort.Strings(s.Cat)
	for _, n := range append(p.engNodes, p.fl.Cluster(0).Nodes...) {
		_, failed := n.FailedAt()
		s.Online = append(s.Online, n.DeviceOnline(0))
		s.Slow = append(s.Slow, n.Slowdown())
		s.Failed = append(s.Failed, failed)
	}
	return s
}

func probeCluster(int) *platform.Cluster {
	return platform.NewCluster(platform.NewNode("node00", platform.XeonModel(), platform.AlveoU55C()))
}

// newLifeProbe builds, serves and shuts down the three fronts.
func newLifeProbe(t *testing.T) *lifeProbe {
	t.Helper()
	p := &lifeProbe{reg: platform.NewRegistry(), cat: platform.NewRegistry()}
	count := func(runtime.Event) { p.traced++ }
	engCluster := probeCluster(0)
	p.engNodes = engCluster.Nodes
	p.eng = runtime.NewEngine(engCluster, runtime.EngineConfig{Trace: count})
	var err error
	if p.fl, err = fleet.New(p.reg, fleet.Config{Sites: 1, NewCluster: probeCluster,
		Trace: func(fleet.Event) { p.traced++ }, EngineTrace: func(string, runtime.Event) { p.traced++ }}); err != nil {
		t.Fatal(err)
	}
	if p.fed, err = region.New(p.cat, region.Config{Regions: 1, SitesPerRegion: 1,
		NewCluster: func(int, int) *platform.Cluster { return probeCluster(0) },
		Trace:      func(region.Event) { p.traced++ }, FleetTrace: func(string, fleet.Event) { p.traced++ },
	}); err != nil {
		t.Fatal(err)
	}
	bs := sdk.ScenarioBitstream()
	for _, err := range []error{p.fl.Publish(bs), p.fed.Publish(bs), p.eng.Start(), p.fl.Start(), p.fed.Start()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.eng.Submit(sdk.SyntheticWorkflow(0), runtime.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.fl.Submit(fleet.Request{Workflow: sdk.AdaptiveWorkflow(1, bs.ID)}); err != nil {
		t.Fatal(err)
	}
	if p.handle, err = p.fed.SubmitAt(region.Request{App: "a", Workflow: sdk.AdaptiveWorkflow(2, bs.ID),
		Class: region.Interactive}); err != nil {
		t.Fatal(err)
	}
	p.eng.Shutdown()
	p.fl.Shutdown()
	p.fed.Shutdown()
	return p
}

// reachKind is where a front method is called from outside tests.
type reachKind int

const (
	served    reachKind = iota // a non-test file outside the method's package calls it
	testsOnly                  // only tests call it: a candidate to delete
)

// lifeEntry is one exported front method: its class, its reach, and a
// call with valid arguments, so that only the lifecycle can refuse it.
type lifeEntry struct {
	class lifeClass
	reach reachKind
	call  func(p *lifeProbe) error
}

func discard[T any](_ T, err error) error { return err }

// frontMethods lists every exported method of the three serving fronts.
// A method added to a front without an entry here fails
// TestFrontLifecycle, so the invariant "every mutating call refuses after
// Shutdown" covers it from its first commit; TestFrontSurfaceReached
// checks each entry's reach.
var frontMethods = map[string]lifeEntry{
	"runtime.Engine.Health":   {readOnly, served, func(p *lifeProbe) error { p.eng.Health(); return nil }},
	"runtime.Engine.Stats":    {readOnly, served, func(p *lifeProbe) error { p.eng.Stats(); return nil }},
	"runtime.Engine.Start":    {lifecycle, served, func(p *lifeProbe) error { return p.eng.Start() }},
	"runtime.Engine.Shutdown": {lifecycle, served, func(p *lifeProbe) error { p.eng.Shutdown(); return nil }},
	"runtime.Engine.Submit": {refuses, served, func(p *lifeProbe) error {
		return discard(p.eng.Submit(sdk.SyntheticWorkflow(3), runtime.SubmitOptions{}))
	}},
	"runtime.Engine.Apply": {refuses, served, func(p *lifeProbe) error {
		return p.eng.Apply(runtime.EnvEvent{Kind: runtime.EnvUnplug, Node: "node00", At: 1})
	}},

	"fleet.Fleet.Sites":           {readOnly, served, func(p *lifeProbe) error { p.fl.Sites(); return nil }},
	"fleet.Fleet.Cluster":         {readOnly, served, func(p *lifeProbe) error { p.fl.Cluster(0); return nil }},
	"fleet.Fleet.QueueWait":       {readOnly, served, func(p *lifeProbe) error { p.fl.QueueWait(1); return nil }},
	"fleet.Fleet.DatasetResident": {readOnly, testsOnly, func(p *lifeProbe) error { p.fl.DatasetResident(0, lateRef); return nil }},
	"fleet.Fleet.Stats":           {readOnly, served, func(p *lifeProbe) error { p.fl.Stats(); return nil }},
	"fleet.Fleet.Start":           {lifecycle, served, func(p *lifeProbe) error { return p.fl.Start() }},
	"fleet.Fleet.Shutdown":        {lifecycle, served, func(p *lifeProbe) error { p.fl.Shutdown(); return nil }},
	"fleet.Fleet.Publish": {refuses, served, func(p *lifeProbe) error {
		bs := sdk.ScenarioBitstream()
		bs.ID = "probe-late"
		return p.fl.Publish(bs)
	}},
	"fleet.Fleet.Warm":         {refuses, served, func(p *lifeProbe) error { _, _, err := p.fl.Warm(sdk.ScenarioBitstream().ID, 1); return err }},
	"fleet.Fleet.WarmAll":      {refuses, served, func(p *lifeProbe) error { return discard(p.fl.WarmAll(sdk.ScenarioBitstream().ID, 1)) }},
	"fleet.Fleet.PlaceDataset": {refuses, served, func(p *lifeProbe) error { return p.fl.PlaceDataset(0, 1, lateRef) }},
	"fleet.Fleet.Submit": {refuses, served, func(p *lifeProbe) error {
		return discard(p.fl.Submit(fleet.Request{Workflow: sdk.SyntheticWorkflow(4), Arrival: 1}))
	}},

	"region.Federation.Regions":         {readOnly, served, func(p *lifeProbe) error { p.fed.Regions(); return nil }},
	"region.Federation.DatasetResident": {readOnly, testsOnly, func(p *lifeProbe) error { p.fed.DatasetResident(0, lateRef); return nil }},
	"region.Federation.Stats":           {readOnly, served, func(p *lifeProbe) error { p.fed.Stats(); return nil }},
	"region.Federation.Start":           {lifecycle, served, func(p *lifeProbe) error { return p.fed.Start() }},
	"region.Federation.Shutdown":        {lifecycle, served, func(p *lifeProbe) error { p.fed.Shutdown(); return nil }},
	"region.Federation.Publish": {refuses, served, func(p *lifeProbe) error {
		bs := sdk.ScenarioBitstream()
		bs.ID = "probe-late"
		return p.fed.Publish(bs)
	}},
	"region.Federation.PlaceDataset": {refuses, served, func(p *lifeProbe) error { return p.fed.PlaceDataset(0, 1, lateRef) }},
	"region.Federation.SubmitAt": {refuses, served, func(p *lifeProbe) error {
		return discard(p.fed.SubmitAt(region.Request{App: "a", Workflow: sdk.SyntheticWorkflow(5), Arrival: 1}))
	}},
	"region.Federation.Drain": {noop, served, func(p *lifeProbe) error { p.fed.Drain(100); return nil }},
}

// frontTypes names each serving front by package directory.
var frontTypes = map[string]string{"runtime": "Engine", "fleet": "Fleet", "region": "Federation"}

// TestFrontLifecycle states the one lifecycle rule once and checks it for
// every exported method of runtime.Engine, fleet.Fleet and
// region.Federation: the walk fails on a method frontMethods does not
// classify (or an entry no method has), and after Shutdown each method
// runs with valid arguments and must leave every observable as it was,
// refusing with runtime.ErrShutDown where its class says so.
func TestFrontLifecycle(t *testing.T) {
	found := map[string]bool{}
	walkInternal(t, func(_ *token.FileSet, pkg string, file *ast.File) {
		front, ok := frontTypes[pkg]
		if !ok {
			return
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || !fn.Name.IsExported() {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok && id.Name == front {
				found[pkg+"."+front+"."+fn.Name.Name] = true
			}
		}
	})
	var missing, stale []string
	for key := range found {
		if _, ok := frontMethods[key]; !ok {
			missing = append(missing, key)
		}
	}
	for key := range frontMethods {
		if !found[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("front methods with no lifecycle entry (classify them in frontMethods):\n%s", strings.Join(missing, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("frontMethods entries no front has (remove them):\n%s", strings.Join(stale, "\n"))
	}

	p := newLifeProbe(t)
	want := p.state()
	keys := make([]string, 0, len(frontMethods))
	for key := range frontMethods {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		e := frontMethods[key]
		err := e.call(p)
		refusal := e.class == refuses || e.class == lifecycle && strings.HasSuffix(key, ".Start")
		switch {
		case refusal && !errors.Is(err, runtime.ErrShutDown):
			t.Errorf("%s after Shutdown = %v, want %v", key, err, runtime.ErrShutDown)
		case !refusal && err != nil:
			t.Errorf("%s after Shutdown = %v, want nil", key, err)
		}
		if got := p.state(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s after Shutdown changed the fronts' state:\n before %+v\n after  %+v", key, want, got)
			want = got
		}
	}
}

// configTypes names each front's config struct by package directory.
var configTypes = map[string]string{"runtime": "EngineConfig", "fleet": "Config", "region": "Config", "stream": "Config"}

// reachRoots are the trees whose non-test files count as callers: the
// library, the CLIs, the benchmark and the examples.
var reachRoots = []string{"internal", "cmd", "bench", "examples"}

// TestFrontSurfaceReached keeps unreached surface out. A front method is
// reached when a non-test file under reachRoots outside its own package
// selects its name (a name match, so a same-named selector counts), and
// frontMethods must record that reach exactly. Every exported field of
// the config structs in configTypes must be set outside its own package,
// as a key of a composite literal of that type or by assignment to a
// selector of that name: a knob nothing turns is deleted, not kept.
func TestFrontSurfaceReached(t *testing.T) {
	fields := map[string]bool{} // "pkg.Type.Field"
	walkInternal(t, func(_ *token.FileSet, pkg string, file *ast.File) {
		typ, ok := configTypes[pkg]
		if !ok {
			return
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || ts.Name.Name != typ {
					continue
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.IsExported() {
							fields[pkg+"."+typ+"."+name.Name] = true
						}
					}
				}
			}
		}
	})
	if len(fields) == 0 {
		t.Fatal("the walk found no config fields")
	}
	// Each map records the package directories a name appears in.
	selected := map[string]map[string]bool{} // selector name
	assigned := map[string]map[string]bool{} // assigned selector name
	keyed := map[string]map[string]bool{}    // "pkg.Type.Key" of a typed composite literal
	note := func(m map[string]map[string]bool, key, pkg string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][pkg] = true
	}
	walkSources(t, reachRoots, func(_ *token.FileSet, pkg string, file *ast.File) {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				note(selected, n.Sel.Name, pkg)
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						note(assigned, sel.Sel.Name, pkg)
					}
				}
			case *ast.CompositeLit:
				typ, ok := n.Type.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := typ.X.(*ast.Ident)
				if !ok {
					return true
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							note(keyed, x.Name+"."+typ.Sel.Name+"."+key.Name, pkg)
						}
					}
				}
			}
			return true
		})
	})
	// outside reports whether name appears in m in a package other than own.
	outside := func(m map[string]map[string]bool, name, own string) bool {
		for pkg := range m[name] {
			if pkg != own {
				return true
			}
		}
		return false
	}
	var wrong []string
	for key, e := range frontMethods {
		parts := strings.Split(key, ".")
		reached := outside(selected, parts[2], parts[0])
		switch {
		case reached && e.reach == testsOnly:
			wrong = append(wrong, key+": recorded testsOnly, but a non-test file outside "+parts[0]+" calls it")
		case !reached && e.reach == served:
			wrong = append(wrong, key+": recorded served, but only tests call it")
		}
	}
	for key := range fields {
		parts := strings.Split(key, ".")
		if !outside(keyed, key, parts[0]) && !outside(assigned, parts[2], parts[0]) {
			wrong = append(wrong, key+": no non-test file outside "+parts[0]+" sets it")
		}
	}
	sort.Strings(wrong)
	if len(wrong) > 0 {
		t.Errorf("front surface reach:\n%s", strings.Join(wrong, "\n"))
	}
}
