package region

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// TestShutdownResolvesRacingBatch: batch submitters race Shutdown while a
// guaranteed completion holds their equal arrivals. Every handle SubmitAt
// returned must resolve: Shutdown drains and closes in one lock section,
// so no submission is parked after the drain and left held forever.
func TestShutdownResolvesRacingBatch(t *testing.T) {
	const rounds, submitters, perSubmitter = 40, 4, 8
	for round := 0; round < rounds; round++ {
		f := newTestFed(t, platform.NewRegistry(), Config{Regions: 1})
		gh, err := f.SubmitAt(Request{App: "g", Workflow: cpuWorkflow(), Class: Guaranteed,
			Deadline: 30, Arrival: 0})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := gh.Wait(); err != nil || res.Completion <= 0.001 {
			t.Fatalf("guaranteed serve = %+v, %v; want a frontier to hold batch behind", res, err)
		}

		var mu sync.Mutex
		var handles []*Handle
		var wg sync.WaitGroup
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSubmitter; i++ {
					h, err := f.SubmitAt(Request{App: "b", Workflow: cpuWorkflow(), Class: Batch, Arrival: 0.001})
					if err != nil {
						return // refused after Shutdown closed the federation
					}
					mu.Lock()
					handles = append(handles, h)
					mu.Unlock()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Shutdown()
		}()
		wg.Wait()

		for _, h := range handles {
			if _, err := h.Wait(); err != nil && strings.Contains(err.Error(), "held") {
				t.Fatalf("round %d: %v (a submission accepted by SubmitAt was never served)", round, err)
			}
		}
		if st := f.Stats(); st.Completed+st.Failed != len(handles)+1 {
			t.Fatalf("round %d: %d completed + %d failed, want %d resolved", round,
				st.Completed, st.Failed, len(handles)+1)
		}
	}
}

// TestDrainAfterShutdownDoesNothing: Shutdown already drained, so a later
// Drain advances no window: no forecast roll, no prefetch warming devices
// of fleets that are shut down, no trace event and no counter moves.
func TestDrainAfterShutdownDoesNothing(t *testing.T) {
	cat := platform.NewRegistry()
	for _, id := range []string{"bs-a", "bs-b"} {
		if err := cat.Put(testBitstream(id)); err != nil {
			t.Fatal(err)
		}
	}
	traced := 0
	f := newTestFed(t, cat, Config{Regions: 1, Prefetch: true,
		WarmThreshold: 0.1, StoreSlots: 1, CacheSlots: 1,
		Trace:      func(Event) { traced++ },
		FleetTrace: func(string, fleet.Event) { traced++ },
	})
	// Two apps alternate through a one-slot store, so whichever served
	// last has evicted the other: a roll after the run would prefetch it.
	for i := 0; i < 16; i++ {
		app, bs := "a", "bs-a"
		if i%2 == 1 {
			app, bs = "b", "bs-b"
		}
		if _, err := f.SubmitAt(Request{App: app, Workflow: fpgaWorkflow(bs), Class: Interactive,
			Arrival: 0.05 * float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	before, events, frontier := f.Shutdown(), traced, f.frontier
	f.Drain(100)
	if after := f.Stats(); !reflect.DeepEqual(after, before) {
		t.Fatalf("Drain after Shutdown moved the stats:\n before %+v\n after  %+v", before, after)
	}
	if traced != events || f.frontier != frontier {
		t.Fatalf("Drain after Shutdown traced %d events and moved the frontier %g -> %g",
			traced-events, frontier, f.frontier)
	}
}

// TestPublishAfterShutdownRefuses: Publish is legal before Start, and
// after Shutdown it returns runtime.ErrShutDown without writing the
// catalog.
func TestPublishAfterShutdownRefuses(t *testing.T) {
	catalog := platform.NewRegistry()
	f, err := New(catalog, Config{Regions: 2, SitesPerRegion: 1, NewCluster: testClusters(1)})
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
	err = f.Publish(testBitstream("bs-late"))
	if !errors.Is(err, runtime.ErrShutDown) {
		t.Fatalf("Publish after Shutdown = %v, want %v", err, runtime.ErrShutDown)
	}
	if _, err := catalog.Entry("bs-late"); err == nil {
		t.Fatal("a refused Publish wrote the catalog")
	}
	if _, err := catalog.Entry("bs-early"); err != nil {
		t.Fatalf("the Publish before Start is gone: %v", err)
	}
}

// TestStartAfterShutdownRefuses: a federation shut down before it ever
// started stays shut. Start refuses with ErrShutDown and starts no
// regional fleet: Shutdown already shut them, started or not.
func TestStartAfterShutdownRefuses(t *testing.T) {
	f, err := New(platform.NewRegistry(), Config{Regions: 2, SitesPerRegion: 1, NewCluster: testClusters(1)})
	if err != nil {
		t.Fatal(err)
	}
	f.Shutdown()
	if err := f.Start(); !errors.Is(err, runtime.ErrShutDown) {
		t.Fatalf("Start after Shutdown = %v, want %v", err, runtime.ErrShutDown)
	}
	for _, r := range f.regions {
		if err := r.fl.Start(); !errors.Is(err, runtime.ErrShutDown) {
			t.Errorf("%s fleet Start = %v: Shutdown left the fleet open", r.name, err)
		}
	}
	if _, err := f.SubmitAt(Request{Workflow: cpuWorkflow()}); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("SubmitAt = %v, want %v", err, runtime.ErrShutDown)
	}
}

// TestFailedStartShutsFederation: region01's only site lost its nodes
// after New, so its engine refuses to start after region00's fleet has
// started. The failed Start is final: it shuts region00's fleet, and
// every later call gets ErrShutDown.
func TestFailedStartShutsFederation(t *testing.T) {
	f, err := New(platform.NewRegistry(), Config{Regions: 2, SitesPerRegion: 1, NewCluster: testClusters(1)})
	if err != nil {
		t.Fatal(err)
	}
	f.regions[1].fl.Cluster(0).Nodes = nil
	if err := f.Start(); err == nil || !strings.Contains(err.Error(), "region01") {
		t.Fatalf("Start = %v, want region01's refusal", err)
	}
	if err := f.regions[0].fl.Publish(testBitstream("bs-late")); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("region00 fleet Publish = %v: the failed Start left it serving", err)
	}
	if err := f.Start(); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("second Start = %v, want %v", err, runtime.ErrShutDown)
	}
	if _, err := f.SubmitAt(Request{Workflow: cpuWorkflow()}); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("SubmitAt = %v, want %v", err, runtime.ErrShutDown)
	}
	if err := f.Publish(testBitstream("bs-late")); !errors.Is(err, runtime.ErrShutDown) {
		t.Errorf("Publish = %v, want %v", err, runtime.ErrShutDown)
	}
}
