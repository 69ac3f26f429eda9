package everest_test

import (
	"errors"
	"go/ast"
	"go/token"
	"math"
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

// lifeState is every observable a mutating call could move: stats
// (which count dataset placements), health, trace, the registries and
// node state.
type lifeState struct {
	Engine runtime.EngineStats
	Health []platform.NodeHealth
	Fleet  fleet.Stats
	Fed    region.Stats
	Traced int
	Late   [2]bool // the refused Publish's bitstream is in the registry, the catalog
	Online []bool
	Slow   []float64
	Failed []bool
}

// lateRef is the partition the refused placement names.
var lateRef = dataset.Ref{Name: "probe/late", Bytes: 1 << 20}

func (p *lifeProbe) state() lifeState {
	s := lifeState{
		Engine: p.eng.Stats(), Health: p.eng.Health(),
		Fleet: p.fl.Stats(), Fed: p.fed.Stats(), Traced: p.traced,
	}
	for i, reg := range []*platform.Registry{p.reg, p.cat} {
		_, err := reg.Get("probe-late")
		s.Late[i] = err == nil
	}
	for _, n := range append(p.engNodes, p.fl.Cluster(0).Nodes...) {
		_, failed := n.FailedAt()
		s.Online = append(s.Online, n.DeviceOnline(0))
		s.Slow = append(s.Slow, n.SlowdownAt(math.Inf(1)))
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

// lifeEntry is one exported front method: its class and a call with
// valid arguments, so that only the lifecycle can refuse it.
type lifeEntry struct {
	class lifeClass
	call  func(p *lifeProbe) error
}

func discard[T any](_ T, err error) error { return err }

// frontMethods lists every exported method of the three serving fronts.
// A method added to a front without an entry here fails
// TestFrontLifecycle, so the invariant "every mutating call refuses after
// Shutdown" covers it from its first commit; TestFrontSurfaceReached checks
// that something reaches it.
var frontMethods = map[string]lifeEntry{
	"runtime.Engine.Health":   {readOnly, func(p *lifeProbe) error { p.eng.Health(); return nil }},
	"runtime.Engine.Stats":    {readOnly, func(p *lifeProbe) error { p.eng.Stats(); return nil }},
	"runtime.Engine.Start":    {lifecycle, func(p *lifeProbe) error { return p.eng.Start() }},
	"runtime.Engine.Shutdown": {lifecycle, func(p *lifeProbe) error { p.eng.Shutdown(); return nil }},
	"runtime.Engine.Submit": {refuses, func(p *lifeProbe) error {
		return discard(p.eng.Submit(sdk.SyntheticWorkflow(3), runtime.SubmitOptions{}))
	}},
	// fleet.serve serves every routed workflow through it.
	"runtime.Engine.Serve": {refuses, func(p *lifeProbe) error {
		return p.eng.Serve(sdk.SyntheticWorkflow(3), runtime.SubmitOptions{}, &runtime.Schedule{})
	}},
	"runtime.Engine.Apply": {refuses, func(p *lifeProbe) error {
		return p.eng.Apply(runtime.EnvEvent{Kind: runtime.EnvUnplug, Node: "node00", At: 1})
	}},

	"fleet.Fleet.Sites":     {readOnly, func(p *lifeProbe) error { p.fl.Sites(); return nil }},
	"fleet.Fleet.Cluster":   {readOnly, func(p *lifeProbe) error { p.fl.Cluster(0); return nil }},
	"fleet.Fleet.QueueWait": {readOnly, func(p *lifeProbe) error { p.fl.QueueWait(1); return nil }},
	"fleet.Fleet.Stats":     {readOnly, func(p *lifeProbe) error { p.fl.Stats(); return nil }},
	"fleet.Fleet.Start":     {lifecycle, func(p *lifeProbe) error { return p.fl.Start() }},
	"fleet.Fleet.Shutdown":  {lifecycle, func(p *lifeProbe) error { p.fl.Shutdown(); return nil }},
	"fleet.Fleet.Publish": {refuses, func(p *lifeProbe) error {
		bs := sdk.ScenarioBitstream()
		bs.ID = "probe-late"
		return p.fl.Publish(bs)
	}},
	"fleet.Fleet.Warm": {refuses, func(p *lifeProbe) error {
		_, _, err := p.fl.Warm(dataset.Intern(dataset.Ref{Name: sdk.ScenarioBitstream().ID}), 1)
		return err
	}},
	"fleet.Fleet.WarmAll":      {refuses, func(p *lifeProbe) error { return discard(p.fl.WarmAll(sdk.ScenarioBitstream().ID, 1)) }},
	"fleet.Fleet.PlaceDataset": {refuses, func(p *lifeProbe) error { return p.fl.PlaceDataset(0, 1, lateRef) }},
	"fleet.Fleet.Submit": {refuses, func(p *lifeProbe) error {
		return discard(p.fl.Submit(fleet.Request{Workflow: sdk.SyntheticWorkflow(4), Arrival: 1}))
	}},

	"region.Federation.Stats":    {readOnly, func(p *lifeProbe) error { p.fed.Stats(); return nil }},
	"region.Federation.Start":    {lifecycle, func(p *lifeProbe) error { return p.fed.Start() }},
	"region.Federation.Shutdown": {lifecycle, func(p *lifeProbe) error { p.fed.Shutdown(); return nil }},
	"region.Federation.Publish": {refuses, func(p *lifeProbe) error {
		bs := sdk.ScenarioBitstream()
		bs.ID = "probe-late"
		return p.fed.Publish(bs)
	}},
	"region.Federation.SubmitAt": {refuses, func(p *lifeProbe) error {
		return discard(p.fed.SubmitAt(region.Request{App: "a", Workflow: sdk.SyntheticWorkflow(5), Arrival: 1}))
	}},
	"region.Federation.Drain": {noop, func(p *lifeProbe) error { p.fed.Drain(100); return nil }},
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
