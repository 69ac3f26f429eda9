package region

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"everest/internal/dataset"
	"everest/internal/fleet"
	"everest/internal/platform"
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
	f := newTestFed(t, cat, Config{Regions: 1, Prefetch: true, Autoscale: true,
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

// TestPlaceDatasetAfterShutdownRefuses: placement is legal before Start,
// and after Shutdown it errors without publishing into the region store,
// counting the publish or making the partition known federation-wide.
func TestPlaceDatasetAfterShutdownRefuses(t *testing.T) {
	f, err := New(platform.NewRegistry(), Config{Regions: 2, SitesPerRegion: 1, NewCluster: testClusters(1)})
	if err != nil {
		t.Fatal(err)
	}
	early := dataset.Ref{Name: "ingest/early", Bytes: 1 << 20}
	if err := f.PlaceDataset(0, 0, early); err != nil {
		t.Fatalf("PlaceDataset before Start: %v", err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	before := f.Shutdown().Regions[1].DataPublished
	late := dataset.Ref{Name: "ingest/late", Bytes: 1 << 20}
	if err := f.PlaceDataset(1, 5, late); err == nil {
		t.Fatal("PlaceDataset after Shutdown returned no error")
	}
	if got := f.Stats().Regions[1].DataPublished; got != before {
		t.Fatalf("DataPublished = %d after a refused placement, want %d", got, before)
	}
	if f.DatasetResident(1, late) {
		t.Fatal("a refused placement is resident in the region store")
	}
	if known := f.dataCat.Known([]dataset.Part{dataset.Intern(late)}); len(known) != 0 {
		t.Fatal("a refused placement is known to the federation catalog")
	}
	if !f.DatasetResident(0, early) {
		t.Fatal("the placement before Start is not resident")
	}
}
