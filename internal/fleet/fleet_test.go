package fleet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"everest/internal/autotuner"
	"everest/internal/hls"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// testBitstream returns a small deployable artifact that fits every
// catalog device.
func testBitstream(id string) platform.Bitstream {
	return platform.Bitstream{
		ID: id, Kernel: "k-" + id, Target: "alveo-u55c",
		Report: hls.Report{
			LatencyCycle: 1 << 16, II: 1, IterLatency: 8,
			Resources: hls.Resources{LUT: 20000, FF: 24000, DSP: 32, BRAM: 16},
			ClockMHz:  300,
		},
		Config: platform.SystemConfig{
			Replicas: 2, BusWidthBits: 512, Lanes: 4, PackedElements: 8,
			DoubleBuffered: true, PLMBytes: 1 << 16,
		},
		ElemBits: 32,
	}
}

// fpgaWorkflow is a two-task workflow whose compute stage requests the
// given bitstream.
func fpgaWorkflow(bsID string) *runtime.Workflow {
	w := runtime.NewWorkflow()
	if err := w.Submit(runtime.TaskSpec{Name: "prep", Flops: 1e9, OutputBytes: 1 << 20}); err != nil {
		panic(err)
	}
	if err := w.Submit(runtime.TaskSpec{
		Name: "compute", Deps: []string{"prep"},
		Flops: 2e10, InputBytes: 1 << 20, OutputBytes: 1 << 18,
		NeedsFPGA: true, BitstreamID: bsID,
	}); err != nil {
		panic(err)
	}
	return w
}

// cpuWorkflow is a single pure-software task.
func cpuWorkflow() *runtime.Workflow {
	w := runtime.NewWorkflow()
	if err := w.Submit(runtime.TaskSpec{Name: "only", Flops: 5e9, OutputBytes: 1 << 18}); err != nil {
		panic(err)
	}
	return w
}

func testCluster(nodes int) func(int) *platform.Cluster {
	return func(int) *platform.Cluster {
		var ns []*platform.Node
		for i := 0; i < nodes; i++ {
			ns = append(ns, platform.NewNode(fmt.Sprintf("node%02d", i),
				platform.XeonModel(), platform.AlveoU55C()))
		}
		return platform.NewCluster(ns...)
	}
}

func newTestFleet(t *testing.T, reg *platform.Registry, cfg Config) *Fleet {
	t.Helper()
	if cfg.NewCluster == nil {
		cfg.NewCluster = testCluster(2)
	}
	f, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidatesConfig(t *testing.T) {
	reg := platform.NewRegistry()
	if _, err := New(nil, Config{Sites: 1, NewCluster: testCluster(1)}); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := New(reg, Config{Sites: 0, NewCluster: testCluster(1)}); err == nil {
		t.Fatal("zero sites accepted")
	}
	if _, err := New(reg, Config{Sites: 1}); err == nil {
		t.Fatal("missing NewCluster accepted")
	}
	if _, err := New(reg, Config{Sites: 1, NewCluster: func(int) *platform.Cluster { return platform.NewCluster() }}); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestSubmitValidatesState(t *testing.T) {
	reg := platform.NewRegistry()
	f, err := New(reg, Config{Sites: 1, NewCluster: testCluster(1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(Request{Workflow: cpuWorkflow()}); err == nil {
		t.Fatal("submit before Start accepted")
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(Request{}); err == nil {
		t.Fatal("nil workflow accepted")
	}
	f.Shutdown()
	if _, err := f.Submit(Request{Workflow: cpuWorkflow()}); err == nil {
		t.Fatal("submit after Shutdown accepted")
	}
	if err := f.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestRouterPrefersCachedBitstreamSite(t *testing.T) {
	reg := platform.NewRegistry()
	bs := testBitstream("bs-loc")
	if err := reg.Put(bs); err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, reg, Config{Sites: 2})
	defer f.Shutdown()

	tk, err := f.Submit(Request{Tenant: "t0", Workflow: fpgaWorkflow(bs.ID), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Site != "site00" {
		t.Fatalf("first workflow routed to %s, want site00 (tie breaks on site order)", res.Site)
	}
	if res.Deploy <= 0 {
		t.Fatalf("cold deploy should stall, got %g", res.Deploy)
	}

	// A different tenant (no affinity anywhere) lands on the site already
	// holding the bitstream: the cached deployment is free, the other site
	// would pay a cold deploy.
	tk2, err := f.Submit(Request{Tenant: "t1", Workflow: fpgaWorkflow(bs.ID), Arrival: res.Completion})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tk2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Site != "site00" {
		t.Fatalf("cached-bitstream workflow routed to %s, want site00", res2.Site)
	}
	if res2.Deploy != 0 {
		t.Fatalf("cache hit should deploy for free, got %g", res2.Deploy)
	}
	st := f.Stats()
	if st.CacheHits() != 1 || st.CacheMisses() != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.CacheHits(), st.CacheMisses())
	}
}

func TestRouterSpreadsLoadAcrossSites(t *testing.T) {
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 2})
	defer f.Shutdown()

	// Same-instant arrivals from distinct tenants: once site00 carries the
	// first workflow's modelled backlog, the queue-depth term routes the
	// next one to site01.
	var sites []string
	for i := 0; i < 4; i++ {
		tk, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", i), Workflow: cpuWorkflow(), Arrival: 0})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, res.Site)
	}
	if sites[0] != "site00" || sites[1] != "site01" {
		t.Fatalf("expected alternating start, got %v", sites)
	}
	st := f.Stats()
	if st.Sites[0].Served == 0 || st.Sites[1].Served == 0 {
		t.Fatalf("both sites should serve, got %+v", st.Sites)
	}
	if st.Completed != 4 || st.Submitted != 4 {
		t.Fatalf("completed/submitted = %d/%d, want 4/4", st.Completed, st.Submitted)
	}
}

func TestAdmissionRejectsSaturatedSites(t *testing.T) {
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 1, MaxQueueSeconds: 0.001})
	defer f.Shutdown()

	tk, err := f.Submit(Request{Tenant: "t0", Workflow: cpuWorkflow(), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion <= 0.001 {
		t.Fatalf("workflow too short to saturate: completion %g", res.Completion)
	}
	// The site's frontier now reaches past the admission bound for a
	// workflow arriving at time 0: refused in the text it always had.
	_, err = f.Submit(Request{Tenant: "t1", Workflow: cpuWorkflow(), Arrival: 0})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("expected ErrSaturated, got %v", err)
	}
	if want := fmt.Errorf("%w (%d sites, queue bound %.3gs)", ErrSaturated, 1, 0.001).Error(); err.Error() != want {
		t.Errorf("refusal reads %q, want %q", err, want)
	}
	// Arriving after the backlog drains is admitted again.
	tk3, err := f.Submit(Request{Tenant: "t2", Workflow: cpuWorkflow(), Arrival: res.Completion})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk3.Wait(); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Rejected != 1 || st.Completed != 2 {
		t.Fatalf("rejected/completed = %d/%d, want 1/2", st.Rejected, st.Completed)
	}
}

func TestEvictionForcesRedeploy(t *testing.T) {
	reg := platform.NewRegistry()
	bs1, bs2 := testBitstream("bs-one"), testBitstream("bs-two")
	if err := reg.Put(bs1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(bs2); err != nil {
		t.Fatal(err)
	}
	var events []Event
	f := newTestFleet(t, reg, Config{
		Sites: 1, CacheSlots: 1,
		Trace: func(ev Event) { events = append(events, ev) },
	})
	defer f.Shutdown()

	arrival := 0.0
	for i, id := range []string{"bs-one", "bs-two", "bs-one"} {
		tk, err := f.Submit(Request{Tenant: "t0", Workflow: fpgaWorkflow(id), Arrival: arrival})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deploy <= 0 {
			t.Fatalf("workflow %d should pay a deploy (one-slot cache), got %g", i, res.Deploy)
		}
		arrival = res.Completion
	}
	st := f.Stats()
	s := st.Sites[0]
	if s.CacheMisses != 3 || s.Evictions != 2 || s.Redeploys != 1 {
		t.Fatalf("miss/evict/redeploy = %d/%d/%d, want 3/2/1", s.CacheMisses, s.Evictions, s.Redeploys)
	}
	if st.CacheMisses() != 3 || st.Evictions() != 2 || st.Redeploys() != 1 || st.CacheHits() != 0 {
		t.Fatalf("aggregate churn = %d/%d/%d/%d, want 3/2/1/0",
			st.CacheMisses(), st.Evictions(), st.Redeploys(), st.CacheHits())
	}
	if f.Sites() != 1 {
		t.Fatalf("Sites() = %d, want 1", f.Sites())
	}
	if cl := f.Cluster(0); cl == nil || len(cl.Nodes) == 0 {
		t.Fatal("Cluster(0) should expose the site cluster")
	}
	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	wantSub := []EventKind{EventCacheMiss, EventDeploy, EventCacheMiss, EventEvict,
		EventDeploy, EventCacheMiss, EventEvict, EventRedeploy}
	i := 0
	for _, k := range kinds {
		if i < len(wantSub) && k == wantSub[i] {
			i++
		}
	}
	if i != len(wantSub) {
		t.Fatalf("trace %v missing subsequence %v (matched %d)", kinds, wantSub, i)
	}
}

func TestFallbackWhenNoOnlineDevice(t *testing.T) {
	reg := platform.NewRegistry()
	bs := testBitstream("bs-fb")
	if err := reg.Put(bs); err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, reg, Config{
		Sites: 1,
		SiteEvents: [][]runtime.EnvEvent{{
			{Kind: runtime.EnvUnplug, Node: "node00", Device: 0, At: 0},
			{Kind: runtime.EnvUnplug, Node: "node01", Device: 0, At: 0},
		}},
	})
	defer f.Shutdown()

	tk, err := f.Submit(Request{Tenant: "t0", Workflow: fpgaWorkflow(bs.ID), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deploy != 0 {
		t.Fatalf("no deploy possible, got stall %g", res.Deploy)
	}
	for _, a := range res.Sched.Assignments {
		if a.OnFPGA {
			t.Fatalf("task %s ran on FPGA with every device offline", a.Task)
		}
	}
	st := f.Stats()
	if st.Sites[0].FallbackDeploys != 1 {
		t.Fatalf("fallback deploys = %d, want 1", st.Sites[0].FallbackDeploys)
	}
}

// TestConcurrentSubmittersServeInline races submitters against one fleet:
// Submit serves under the fleet lock, so every ticket is resolved when it
// returns, nothing is left in flight on any engine, and each site's
// completions advance monotonically in serve order.
func TestConcurrentSubmittersServeInline(t *testing.T) {
	const submitters, perSubmitter = 8, 16
	reg := platform.NewRegistry()
	var served []string // EventDone workflow names, in serve order
	f := newTestFleet(t, reg, Config{Sites: 2, Trace: func(ev Event) {
		if ev.Kind == EventDone {
			served = append(served, ev.Workflow)
		}
	}})

	var mu sync.Mutex
	results := make(map[string]Result)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < perSubmitter; j++ {
				name := fmt.Sprintf("g%d-%d", g, j)
				tk, err := f.Submit(Request{Tenant: fmt.Sprintf("t%d", g%3),
					Name: name, Workflow: cpuWorkflow(),
					Arrival: float64(j) * 0.01})
				if err != nil {
					t.Error(err)
					return
				}
				res, err := tk.Wait()
				if err != nil || res.Sched == nil || res.Site == "" {
					t.Errorf("%s unresolved when Submit returned: %+v %v", name, res, err)
					return
				}
				mu.Lock()
				results[name] = res
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	st := f.Stats()
	if st.Completed != submitters*perSubmitter {
		t.Fatalf("completed = %d, want %d", st.Completed, submitters*perSubmitter)
	}
	for _, s := range st.Sites {
		if s.Failed != 0 {
			t.Fatalf("%s: %d failed serves, want 0", s.Name, s.Failed)
		}
	}
	last := make(map[string]float64)
	for _, name := range served {
		res := results[name]
		if res.Completion < last[res.Site] {
			t.Fatalf("%s on %s completes at %g, before its predecessor's %g",
				name, res.Site, res.Completion, last[res.Site])
		}
		last[res.Site] = res.Completion
	}

	f.Shutdown()
	if tk, err := f.Submit(Request{Workflow: cpuWorkflow()}); err == nil || tk != nil {
		t.Fatalf("Submit after Shutdown = (%v, %v), want an error and no ticket", tk, err)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventRoute, EventReject, EventCacheHit, EventCacheMiss,
		EventDeploy, EventEvict, EventRedeploy, EventFallback, EventDone, EventKind(99)}
	want := []string{"route", "reject", "cache-hit", "cache-miss", "deploy",
		"evict", "redeploy", "fallback", "done", "unknown"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
}

// TestEngineTraceMergeAndServeError covers the two serve-side trace paths
// the eviction test does not: per-site engine events flowing through
// Config.EngineTrace tagged with their site name, and the error path —
// a site whose nodes are all dead must resolve the ticket with an error
// and trace an EventDone carrying the error detail.
func TestEngineTraceMergeAndServeError(t *testing.T) {
	reg := platform.NewRegistry()
	var events []Event
	var engSites []string
	f := newTestFleet(t, reg, Config{
		Sites: 1,
		Trace: func(ev Event) { events = append(events, ev) },
		EngineTrace: func(site string, ev runtime.Event) {
			engSites = append(engSites, fmt.Sprintf("%s:%d:%s", site, ev.Kind, ev.Task))
		},
	})
	defer f.Shutdown()

	tk, err := f.Submit(Request{Tenant: "t0", Workflow: cpuWorkflow()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(engSites) == 0 {
		t.Fatal("no engine events reached EngineTrace")
	}
	for _, s := range engSites {
		if !strings.HasPrefix(s, "site00:") {
			t.Fatalf("engine event not tagged with its site: %q", s)
		}
	}

	for _, n := range f.Cluster(0).Nodes {
		n.Fail(0)
	}
	tk, err = f.Submit(Request{Tenant: "t0", Workflow: cpuWorkflow(), Arrival: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Fatal("serving on an all-dead site must error")
	}
	last := events[len(events)-1]
	if last.Kind != EventDone || !strings.Contains(last.Detail, "error:") {
		t.Fatalf("last event = %+v, want EventDone with error detail", last)
	}
	st := f.Stats()
	if st.Sites[0].Failed != 1 {
		t.Fatalf("site failed count = %d, want 1", st.Sites[0].Failed)
	}
}

func TestPartialReconfigSharesOneDevice(t *testing.T) {
	// Two distinct kernels on a one-device site: with partial
	// reconfiguration and a two-slot cache they land in two PR regions of
	// the same card — the alternating stream pays two cold region deploys
	// and then runs eviction-free, where whole-device programming churns.
	reg := platform.NewRegistry()
	bs1, bs2 := testBitstream("bs-pr-a"), testBitstream("bs-pr-b")
	for _, bs := range []platform.Bitstream{bs1, bs2} {
		if err := reg.Put(bs); err != nil {
			t.Fatal(err)
		}
	}
	serve := func(partial bool) ([]float64, Stats) {
		var events []Event
		f := newTestFleet(t, reg, Config{
			Sites: 1, CacheSlots: 2, PartialReconfig: partial,
			NewCluster: testCluster(1),
			Trace:      func(ev Event) { events = append(events, ev) },
		})
		defer f.Shutdown()
		var deploys []float64
		arrival := 0.0
		for _, id := range []string{"bs-pr-a", "bs-pr-b", "bs-pr-a", "bs-pr-b"} {
			tk, err := f.Submit(Request{Tenant: "t0", Workflow: fpgaWorkflow(id), Arrival: arrival})
			if err != nil {
				t.Fatal(err)
			}
			res, err := tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			deploys = append(deploys, res.Deploy)
			arrival = res.Completion
		}
		if partial {
			found := false
			for _, ev := range events {
				if ev.Kind == EventDeploy && strings.Contains(ev.Detail, ".r") {
					found = true
				}
			}
			if !found {
				t.Fatalf("partial deploys should target region slots, trace: %+v", events)
			}
		}
		return deploys, f.Stats()
	}

	prDeploys, prStats := serve(true)
	wholeDeploys, wholeStats := serve(false)

	// Partial: two cold region deploys, then both kernels stay resident.
	if prDeploys[0] <= 0 || prDeploys[1] <= 0 {
		t.Fatalf("partial cold deploys = %v, want both paid", prDeploys)
	}
	if prDeploys[2] != 0 || prDeploys[3] != 0 {
		t.Fatalf("partial revisits = %v, want free (both kernels resident)", prDeploys[2:])
	}
	if prStats.Evictions() != 0 || prStats.CacheHits() != 2 {
		t.Fatalf("partial evictions/hits = %d/%d, want 0/2", prStats.Evictions(), prStats.CacheHits())
	}
	// Whole-device: the single card holds one image at a time, so every
	// alternation evicts and redeploys despite the two-slot cache.
	if wholeStats.Evictions() == 0 || wholeStats.Redeploys() == 0 {
		t.Fatalf("whole-device churn = evict %d redeploy %d, want > 0",
			wholeStats.Evictions(), wholeStats.Redeploys())
	}
	// Region images are a quarter of the card: cold partial deploys must
	// be cheaper than whole-device ones.
	if prDeploys[0] >= wholeDeploys[0] {
		t.Fatalf("region deploy %g should undercut whole-device deploy %g",
			prDeploys[0], wholeDeploys[0])
	}
}

// TestSubmitRejectsNonFiniteInput: a negative or non-finite arrival, or a
// guaranteed request with a non-finite deadline, is a bad request. Submit must say so
// without wrapping ErrSaturated (a caller that retries on saturation
// would retry forever), count nothing, trace nothing and leave every site
// as it was.
func TestSubmitRejectsNonFiniteInput(t *testing.T) {
	reg := platform.NewRegistry()
	traced := 0
	f := newTestFleet(t, reg, Config{Sites: 2, Trace: func(Event) { traced++ }})
	defer f.Shutdown()
	nan, inf := math.NaN(), math.Inf(1)
	before := f.Stats()
	for _, req := range []Request{
		{Workflow: cpuWorkflow(), Arrival: nan},
		{Workflow: cpuWorkflow(), Arrival: inf},
		{Workflow: cpuWorkflow(), Arrival: -inf},
		{Workflow: cpuWorkflow(), Arrival: -1},
		{Workflow: cpuWorkflow(), Arrival: nan, Guaranteed: true, Deadline: 5},
		{Workflow: cpuWorkflow(), Guaranteed: true, Deadline: nan},
		{Workflow: cpuWorkflow(), Guaranteed: true, Deadline: inf},
	} {
		tk, err := f.Submit(req)
		if err == nil {
			res, _ := tk.Wait()
			t.Fatalf("arrival %g deadline %g: admitted on %s, want an error", req.Arrival, req.Deadline, res.Site)
		}
		if errors.Is(err, ErrSaturated) {
			t.Fatalf("arrival %g deadline %g: %v wraps ErrSaturated, want a bad-request error",
				req.Arrival, req.Deadline, err)
		}
		if after := f.Stats(); !reflect.DeepEqual(before, after) {
			t.Fatalf("arrival %g deadline %g changed the fleet:\nbefore %+v\nafter  %+v",
				req.Arrival, req.Deadline, before, after)
		}
		if _, ok := f.lastSite["default"]; traced != 0 || ok {
			t.Fatalf("arrival %g deadline %g left state behind: %d events traced, affinity recorded %v",
				req.Arrival, req.Deadline, traced, ok)
		}
	}
}

// TestUnnamedWorkflowName pins the name Submit gives an unnamed
// workflow, the engine's tie-break key: "tenant/wfN", N counting every
// accepted submission of any tenant, named or not. Building it costs one
// allocation.
func TestUnnamedWorkflowName(t *testing.T) {
	var last string // the workflow of the last completion traced
	f := newTestFleet(t, platform.NewRegistry(), Config{Sites: 1, Trace: func(ev Event) {
		if ev.Kind == EventDone {
			last = ev.Workflow
		}
	}})
	defer f.Shutdown()
	for i := 1; i <= 12; i++ {
		req := Request{Tenant: "tenantA", Workflow: cpuWorkflow(), Arrival: float64(i)}
		switch {
		case i%3 == 0:
			req.Tenant = "tenantB"
		case i == 5:
			req.Name = "named"
		}
		if _, err := f.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if last != "tenantB/wf12" {
		t.Fatalf("twelfth submission named %q, want tenantB/wf12", last)
	}
	if got := WorkflowName("tenantA", 12); got != "tenantA/wf12" {
		t.Fatalf("WorkflowName = %q, want tenantA/wf12", got)
	}
	if got := WorkflowName("", 1234567); got != "/wf1234567" {
		t.Fatalf("WorkflowName = %q, want /wf1234567", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = WorkflowName("tenantA", 1234567) }); got > 1 {
		t.Fatalf("WorkflowName allocates %.1f per call, budget 1", got)
	}
}

// TestTicketSchedulesAreOwned serves workflows of several shapes on an
// adaptive one-site fleet, so every one lands on the same engine and its
// records and tuners recycle, and copies each ticket's schedule right
// after its Submit. At the end every schedule must still equal its copy,
// and no two tickets may share an assignment array.
func TestTicketSchedulesAreOwned(t *testing.T) {
	reg := platform.NewRegistry()
	if err := reg.Put(testBitstream("bs0")); err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, reg, Config{Sites: 1, Adaptive: true})
	defer f.Shutdown()
	shapes := []*runtime.Workflow{fpgaWorkflow("bs0"), cpuWorkflow(), fpgaWorkflow("bs0")}
	shapes[2].SetVariants([]autotuner.Variant{
		{Name: runtime.VariantCPU1.String(), ExpectedMs: 400},
		{Name: runtime.VariantCPU16.String(), ExpectedMs: 40},
		{Name: runtime.VariantFPGA.String(), ExpectedMs: 4},
	})
	var scheds []*runtime.Schedule
	var copies []runtime.Schedule
	for i := range 24 {
		tk, err := f.Submit(Request{Tenant: "t", Workflow: shapes[i%len(shapes)], Arrival: 0.1 * float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		c := *res.Sched
		c.Assignments = slices.Clone(res.Sched.Assignments)
		scheds, copies = append(scheds, res.Sched), append(copies, c)
	}
	arrays := map[*runtime.Assignment]int{}
	for i, s := range scheds {
		if !reflect.DeepEqual(*s, copies[i]) {
			t.Errorf("ticket %d's schedule changed after its Submit returned:\n got  %+v\n want %+v", i, *s, copies[i])
		}
		end := &s.Assignments[:cap(s.Assignments)][cap(s.Assignments)-1]
		if j, ok := arrays[end]; ok {
			t.Errorf("tickets %d and %d share an assignment array", j, i)
		}
		arrays[end] = i
	}
}
