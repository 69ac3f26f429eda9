package fleet

import (
	"errors"
	"reflect"
	"testing"

	"everest/internal/dataset"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// staged reports whether site i's bitstream store holds bitstream id.
func staged(f *Fleet, i int, id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sites[i].bstore.Holds(needPart(id).ID)
}

func TestWarmStagesAndIsIdempotent(t *testing.T) {
	reg := platform.NewRegistry()
	reg.Put(testBitstream("bs-w"))
	f := newTestFleet(t, reg, Config{Sites: 2, CacheSlots: 2})
	defer f.Shutdown()

	site, dt, err := f.Warm(needPart("bs-w"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatalf("first warm must pay transfer+reconfig, got %g", dt)
	}
	// Second warm finds the bitstream resident: free no-op.
	site2, dt2, err := f.Warm(needPart("bs-w"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if site2 != site || dt2 != 0 {
		t.Fatalf("re-warm = (site %d, %g), want resident no-op on site %d", site2, dt2, site)
	}
	if !staged(f, site, "bs-w") || staged(f, 1-site, "bs-w") {
		t.Fatalf("bs-w staged on site 0/1 = %v/%v, want only site %d", staged(f, 0, "bs-w"), staged(f, 1, "bs-w"), site)
	}

	// A warmed bitstream makes the first real serve a cache hit: no
	// deployment stall on the workflow's critical path.
	tk, err := f.Submit(Request{Tenant: "t", Name: "wf", Workflow: fpgaWorkflow("bs-w"), Arrival: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deploy != 0 {
		t.Fatalf("serve after warm paid deploy stall %g, want 0", res.Deploy)
	}
}

func TestWarmErrors(t *testing.T) {
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 1})
	defer f.Shutdown()
	if _, _, err := f.Warm(needPart("missing"), 0); err == nil {
		t.Fatal("warming an unregistered bitstream must fail")
	}
}

// TestWarmSkipsSitesWithNoFit: the least-busy site is taken among the
// sites an online device of which fits the bitstream, so a site with no
// FPGA never swallows the warm; with no such site anywhere Warm errs.
func TestWarmSkipsSitesWithNoFit(t *testing.T) {
	reg := platform.NewRegistry()
	if err := reg.Put(testBitstream("bs")); err != nil {
		t.Fatal(err)
	}
	cpuOnly := func(int) *platform.Cluster {
		return platform.NewCluster(platform.NewNode("node00", platform.XeonModel()))
	}
	f := newTestFleet(t, reg, Config{Sites: 2, NewCluster: func(i int) *platform.Cluster {
		if i == 0 {
			return cpuOnly(i)
		}
		return testCluster(1)(i)
	}})
	defer f.Shutdown()
	site, dt, err := f.Warm(needPart("bs"), 0)
	if err != nil || site != 1 || dt <= 0 {
		t.Fatalf("Warm = (site %d, %gs, %v), want a staging on site 1", site, dt, err)
	}
	if st := f.Stats(); !staged(f, 1, "bs") || st.Sites[0].FallbackDeploys != 0 {
		t.Fatalf("site stats %+v, want bs staged on site 1 and no fallback on site 0", st.Sites)
	}

	none := newTestFleet(t, reg, Config{Sites: 2, NewCluster: cpuOnly})
	defer none.Shutdown()
	if _, _, err := none.Warm(needPart("bs"), 0); err == nil {
		t.Fatal("a fleet with no FPGA must refuse to warm")
	}
}

func TestQueueWait(t *testing.T) {
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 1})
	defer f.Shutdown()
	if w := f.QueueWait(0); w != 0 {
		t.Fatalf("idle fleet QueueWait = %g, want 0", w)
	}
	tk, err := f.Submit(Request{Workflow: cpuWorkflow(), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// An arrival before the frontier waits for it; one after waits 0.
	if w := f.QueueWait(0); w != res.Completion {
		t.Fatalf("QueueWait(0) = %g, want %g", w, res.Completion)
	}
	if w := f.QueueWait(res.Completion + 1); w != 0 {
		t.Fatalf("QueueWait past frontier = %g, want 0", w)
	}
}

// TestWarmAllStagesEverySite: one call leaves the bitstream resident at
// every site (each first serve is deploy-free wherever it lands), and a
// second call is a fleet-wide free no-op.
func TestWarmAllStagesEverySite(t *testing.T) {
	reg := platform.NewRegistry()
	reg.Put(testBitstream("bs-w"))
	f := newTestFleet(t, reg, Config{Sites: 3})
	defer f.Shutdown()

	dt, err := f.WarmAll("bs-w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatalf("first warm-all staged nothing (dt=%g)", dt)
	}
	for i := range f.Sites() {
		if !staged(f, i, "bs-w") {
			t.Fatalf("site %d does not hold bs-w after WarmAll", i)
		}
	}
	// Everything resident: re-warming the fleet is free.
	if dt2, err := f.WarmAll("bs-w", 1); err != nil || dt2 != 0 {
		t.Fatalf("second warm-all = (%g, %v), want a free no-op", dt2, err)
	}
	// Different tenants spread over the sites; neither serve pays a deploy
	// stall.
	for i, tenant := range []string{"a", "b"} {
		tk, err := f.Submit(Request{Tenant: tenant, Name: tenant,
			Workflow: fpgaWorkflow("bs-w"), Arrival: 2 + float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deploy != 0 {
			t.Fatalf("tenant %s paid deploy stall %g after warm-all", tenant, res.Deploy)
		}
	}
	if _, err := f.WarmAll("missing", 0); err == nil {
		t.Fatal("warm-all of an unregistered bitstream must fail")
	}
}

// TestControlCallsRefuseAfterShutdown: once the fleet is shut down, Warm,
// WarmAll and PlaceDataset each refuse, like the engine's
// control calls: they program no device, publish no partition, and trace
// nothing. (Before Start they stay legal: scenarios stage before serving.)
func TestControlCallsRefuseAfterShutdown(t *testing.T) {
	reg := platform.NewRegistry()
	for _, id := range []string{"bs-a", "bs-b"} {
		if err := reg.Put(testBitstream(id)); err != nil {
			t.Fatal(err)
		}
	}
	traced := 0
	f := newTestFleet(t, reg, Config{Sites: 2, CacheSlots: 2, Trace: func(Event) { traced++ }})
	if _, err := f.Submit(Request{Workflow: fpgaWorkflow("bs-a")}); err != nil {
		t.Fatal(err)
	}
	before, events := f.Shutdown(), traced

	// bs-b is resident nowhere, so a warm that went through would deploy.
	for name, call := range map[string]func() error{
		"Warm":         func() error { _, _, err := f.Warm(needPart("bs-b"), 1); return err },
		"WarmAll":      func() error { _, err := f.WarmAll("bs-b", 1); return err },
		"PlaceDataset": func() error { return f.PlaceDataset(1, 1, dataset.Ref{Name: "late", Bytes: 1 << 20}) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s after Shutdown succeeded, want a refusal", name)
		}
	}
	if after := f.Stats(); !reflect.DeepEqual(after, before) {
		t.Errorf("control calls after Shutdown moved the stats:\n before %+v\n after  %+v", before, after)
	}
	if traced != events {
		t.Errorf("control calls after Shutdown traced %d events, want 0", traced-events)
	}
	if resident(f, 1, dataset.Ref{Name: "late", Bytes: 1 << 20}) {
		t.Error("PlaceDataset after Shutdown published the partition")
	}
}

// TestPublishRefusesAfterShutdown: Publish is legal before Start, and
// after Shutdown it refuses with the other control calls' error without
// writing the registry.
func TestPublishRefusesAfterShutdown(t *testing.T) {
	reg := platform.NewRegistry()
	f, err := New(reg, Config{Sites: 1, NewCluster: testCluster(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Publish(testBitstream("bs-early")); err != nil {
		t.Fatalf("Publish before Start: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	f.Shutdown()
	if err := f.Publish(testBitstream("bs-late")); !errors.Is(err, runtime.ErrShutDown) {
		t.Fatalf("Publish after Shutdown = %v, want %v", err, runtime.ErrShutDown)
	}
	if _, err := reg.Entry("bs-late"); err == nil {
		t.Fatal("a refused Publish wrote the registry")
	}
	if _, err := reg.Entry("bs-early"); err != nil {
		t.Fatalf("the Publish before Start is gone: %v", err)
	}
}
