package sdk

import (
	"fmt"
	"sync"
	"testing"

	"everest/internal/dataset"
	"everest/internal/platform"
	"everest/internal/region"
)

// Registries take no lock: a front owns its registry, and Publish writes
// it under the front's lock. These tests publish while the front serves
// (and fills each entry's bound memo through guaranteed admission), so a
// write that bypassed the front lock shows up under -race.

const (
	publishSubmitters = 3
	publishPerWorker  = 6
	publishNewIDs     = 8
)

// publishedBitstream is ScenarioBitstream under another ID.
func publishedBitstream(i int) platform.Bitstream {
	bs := ScenarioBitstream()
	bs.ID = fmt.Sprintf("bs-published-%d", i)
	return bs
}

// publishLoop publishes publishNewIDs new bitstreams, re-publishing the
// scenario bitstream between them, and reports the first error.
func publishLoop(t *testing.T, publish func(platform.Bitstream) error) {
	t.Helper()
	for i := 0; i < publishNewIDs; i++ {
		if err := publish(publishedBitstream(i)); err != nil {
			t.Error(err)
			return
		}
		if err := publish(ScenarioBitstream()); err != nil {
			t.Error(err)
			return
		}
	}
}

// publishNeed is the bitstream submission (w, i) asks for: the scenario
// bitstream or one the publisher may not have stored yet (a miss serves
// in software).
func publishNeed(w, i int) string {
	if (w+i)%2 == 0 {
		return ScenarioBitstream().ID
	}
	return publishedBitstream(i % publishNewIDs).ID
}

func TestPublishWhileServingFleet(t *testing.T) {
	srv, err := NewFleetServer(FleetConfig{Sites: 2, NodesPerSite: 1, CacheSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Publish(ScenarioBitstream()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	fl := srv.Fleet()
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		publishLoop(t, srv.Publish)
	}()
	for w := 0; w < publishSubmitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < publishPerWorker; i++ {
				wf := AdaptiveWorkflow(i, publishNeed(w, i))
				at := float64(i) * 0.01
				var err error
				if i%2 == 0 {
					_, err = srv.SubmitGuaranteedAt("g", "", wf, at, 1e3)
				} else {
					_, err = srv.SubmitAt("b", "", wf, at)
				}
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				accepted++
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < publishPerWorker; i++ {
			fl.Stats()
			if err := fl.PlaceDataset(i%2, 0, dataset.Ref{Name: fmt.Sprintf("part-%d", i), Bytes: 1 << 16}); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()

	// Every publish landed: each new bitstream deploys.
	for i := 0; i < publishNewIDs; i++ {
		if _, err := fl.WarmAll(publishedBitstream(i).ID, 1); err != nil {
			t.Errorf("published %s: %v", publishedBitstream(i).ID, err)
		}
	}
	st := srv.Shutdown().Fleet
	if st.Completed != accepted || guaranteedDone(st) == 0 || st.BoundViolations() != 0 {
		t.Fatalf("completed %d of %d accepted, %d guaranteed, %d bound violations",
			st.Completed, accepted, guaranteedDone(st), st.BoundViolations())
	}
}

func TestPublishWhileServingRegion(t *testing.T) {
	srv, err := NewRegionServer(RegionConfig{Regions: 2, SitesPerRegion: 1, NodesPerSite: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Publish(ScenarioBitstream()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var handles []*region.Handle
	wg.Add(1)
	go func() {
		defer wg.Done()
		publishLoop(t, srv.Publish)
	}()
	for w := 0; w < publishSubmitters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < publishPerWorker; i++ {
				// Equal arrivals keep every interleaving non-decreasing.
				req := region.Request{Tenant: "t", App: fmt.Sprintf("app%d", w),
					Workflow: AdaptiveWorkflow(i, publishNeed(w, i)), Home: (w + i) % 2,
					Class: region.Interactive}
				if i%2 == 0 {
					req.Class, req.Deadline = region.Guaranteed, 1e3
				}
				h, err := srv.SubmitAt(req)
				if err != nil {
					t.Error(err)
					return
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
		for i := 0; i < publishPerWorker; i++ {
			srv.fed.Stats()
		}
	}()
	wg.Wait()

	for _, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Shutdown().Federation
	if st.Completed != len(handles) || st.Guaranteed == 0 || st.BoundViolations != 0 {
		t.Fatalf("completed %d of %d accepted, %d guaranteed, %d bound violations",
			st.Completed, len(handles), st.Guaranteed, st.BoundViolations)
	}
}
