package fleet

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"everest/internal/dataset"
	"everest/internal/platform"
	"everest/internal/runtime"
)

func TestWarmStagesAndIsIdempotent(t *testing.T) {
	reg := platform.NewRegistry()
	reg.Put(testBitstream("bs-w"))
	f := newTestFleet(t, reg, Config{Sites: 2, CacheSlots: 2})
	defer f.Shutdown()

	site, dt, err := f.Warm("bs-w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatalf("first warm must pay transfer+reconfig, got %g", dt)
	}
	// Second warm finds the bitstream resident: free no-op.
	site2, dt2, err := f.Warm("bs-w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if site2 != site || dt2 != 0 {
		t.Fatalf("re-warm = (site %d, %g), want resident no-op on site %d", site2, dt2, site)
	}
	st := f.Stats()
	if st.WarmDeploys() != 1 {
		t.Fatalf("WarmDeploys = %d, want 1", st.WarmDeploys())
	}
	if st.Sites[site].WarmSeconds != dt {
		t.Fatalf("WarmSeconds = %g, want %g", st.Sites[site].WarmSeconds, dt)
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
	reg.Put(testBitstream("bs-w"))
	f := newTestFleet(t, reg, Config{Sites: 1})
	defer f.Shutdown()
	if _, _, err := f.Warm("missing", 0); err == nil {
		t.Fatal("warming an unregistered bitstream must fail")
	}
	// Deactivate the only site: nothing can host the warm.
	if err := f.SetSiteActive(0, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Warm("bs-w", 0); err == nil || !strings.Contains(err.Error(), "no active site") {
		t.Fatalf("warm with no active site = %v, want refusal", err)
	}
}

func TestSetSiteActiveGatesRouting(t *testing.T) {
	reg := platform.NewRegistry()
	reg.Put(testBitstream("bs-a"))
	f := newScaledFleet(t, reg, Config{Sites: 2}, 1)
	defer f.Shutdown()

	if got := f.Stats().ActiveSites(); got != 1 {
		t.Fatalf("ActiveSites = %d, want 1", got)
	}
	// All work lands on the lone active site.
	for i := 0; i < 3; i++ {
		tk, err := f.Submit(Request{Workflow: cpuWorkflow(), Arrival: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Site != "site00" {
			t.Fatalf("workflow %d served by %s, want site00", i, res.Site)
		}
	}
	// Site 1 joins with a boot delay: arrivals before activeFrom still
	// cannot use it, arrivals after can.
	if err := f.SetSiteActive(1, true, 100); err != nil {
		t.Fatal(err)
	}
	tk, err := f.Submit(Request{Workflow: cpuWorkflow(), Arrival: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk.Wait(); err != nil || res.Site != "site00" {
		t.Fatalf("pre-boot arrival served by %s (%v), want site00", res.Site, err)
	}
	// Back site00 up past t=200 so the joined site is the cheaper choice
	// once its boot completes.
	heavy := runtime.NewWorkflow()
	if err := heavy.Submit(runtime.TaskSpec{Name: "only", Flops: 5e13, OutputBytes: 1 << 18}); err != nil {
		t.Fatal(err)
	}
	tk, err = f.Submit(Request{Workflow: heavy, Arrival: 199})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Site != "site00" || res.Completion <= 200 {
		t.Fatalf("heavy workflow: site %s completion %g, want site00 past 200", res.Site, res.Completion)
	}
	tk, err = f.Submit(Request{Workflow: cpuWorkflow(), Arrival: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk.Wait(); err != nil || res.Site != "site01" {
		t.Fatalf("post-boot arrival served by %s (%v), want idle site01", res.Site, err)
	}
	if got := f.Stats().ActiveSites(); got != 2 {
		t.Fatalf("ActiveSites = %d, want 2", got)
	}
	if err := f.SetSiteActive(5, true, 0); err == nil {
		t.Fatal("out-of-range site index must fail")
	}
}

func TestQueueWait(t *testing.T) {
	reg := platform.NewRegistry()
	f := newScaledFleet(t, reg, Config{Sites: 2}, 1)
	defer f.Shutdown()
	if w, ok := f.QueueWait(0); !ok || w != 0 {
		t.Fatalf("idle fleet QueueWait = (%g, %v), want (0, true)", w, ok)
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
	if w, ok := f.QueueWait(0); !ok || w != res.Completion {
		t.Fatalf("QueueWait(0) = (%g, %v), want (%g, true)", w, ok, res.Completion)
	}
	if w, ok := f.QueueWait(res.Completion + 1); !ok || w != 0 {
		t.Fatalf("QueueWait past frontier = (%g, %v), want (0, true)", w, ok)
	}
	if err := f.SetSiteActive(0, false, res.Completion); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.QueueWait(res.Completion + 1); ok {
		t.Fatal("QueueWait with every site inactive must report ok=false")
	}
}

// TestWarmAllStagesEverySite: one call leaves the bitstream resident at
// every active site (each first serve is deploy-free wherever it lands),
// a second call is a fleet-wide free no-op, and inactive sites are
// skipped rather than staged.
func TestWarmAllStagesEverySite(t *testing.T) {
	reg := platform.NewRegistry()
	reg.Put(testBitstream("bs-w"))
	f := newScaledFleet(t, reg, Config{Sites: 3}, 2)
	defer f.Shutdown()

	dt, err := f.WarmAll("bs-w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dt <= 0 {
		t.Fatalf("first warm-all staged nothing (dt=%g)", dt)
	}
	st := f.Stats()
	for i := 0; i < 2; i++ {
		if st.Sites[i].WarmDeploys != 1 {
			t.Fatalf("site %d WarmDeploys = %d, want 1", i, st.Sites[i].WarmDeploys)
		}
	}
	if st.Sites[2].WarmDeploys != 0 {
		t.Fatal("warm-all staged an inactive site")
	}
	// Everything resident: re-warming the fleet is free.
	if dt2, err := f.WarmAll("bs-w", 1); err != nil || dt2 != 0 {
		t.Fatalf("second warm-all = (%g, %v), want a free no-op", dt2, err)
	}
	// Different tenants spread over both active sites; neither serve pays
	// a deploy stall.
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
// WarmAll, PlaceDataset and SetSiteActive each refuse, like the engine's
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
		"Warm":          func() error { _, _, err := f.Warm("bs-b", 1); return err },
		"WarmAll":       func() error { _, err := f.WarmAll("bs-b", 1); return err },
		"PlaceDataset":  func() error { return f.PlaceDataset(1, 1, dataset.Ref{Name: "late", Bytes: 1 << 20}) },
		"SetSiteActive": func() error { return f.SetSiteActive(1, false, 1) },
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
	if f.DatasetResident(1, dataset.Ref{Name: "late", Bytes: 1 << 20}) {
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
