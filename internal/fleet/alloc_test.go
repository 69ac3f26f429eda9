package fleet

import (
	"testing"

	"everest/internal/dataset"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// needParts interns bitstream IDs the way Workflow.Submit resolves needs.
func needParts(ids ...string) []dataset.Part {
	var out []dataset.Part
	for _, id := range ids {
		out = append(out, dataset.Intern(dataset.Ref{Name: id}))
	}
	return out
}

// TestRouteAllocFree pins the router's allocation budget: pricing every
// site for one workflow — cache residency probes, cold-deploy estimates,
// affinity, and for a guaranteed request the proven service and deploy
// bounds — must not allocate in steady state, so the whole Submit-side
// routing decision stays off the heap; a regression here would show up as
// GC pressure scaling with routed workflows in BenchmarkSimulatorSpeed.
func TestRouteAllocFree(t *testing.T) {
	reg := platform.NewRegistry()
	if err := reg.Put(testBitstream("bs0")); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(testBitstream("bs1")); err != nil {
		t.Fatal(err)
	}
	f, err := New(reg, Config{Sites: 4, NewCluster: testCluster(2)})
	if err != nil {
		t.Fatal(err)
	}
	refs := dataset.Partitioned("points", 1<<24, 2)
	if err := f.PlaceDataset(0, 0, refs...); err != nil {
		t.Fatal(err)
	}
	reads := []dataset.Part{dataset.Intern(refs[0]), dataset.Intern(refs[1])}
	for _, tc := range []struct {
		what  string
		needs []dataset.Part
		reads []dataset.Part
	}{
		{"route (software-only)", nil, nil},
		{"route (cold bitstreams)", needParts("bs0", "bs1"), nil},
		{"route (dataset locality)", needParts("bs0"), reads},
	} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := f.route("tenant00", 1, true, tc.needs, tc.reads, 0.5); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s allocates %.1f per run, budget 0", tc.what, got)
		}
	}
	// The catalog gate in front of routing shares a fully known read set.
	if got := testing.AllocsPerRun(200, func() {
		if known := f.catalog.Known(reads); len(known) != len(reads) {
			t.Fatalf("known = %v, want every read", known)
		}
	}); got > 0 {
		t.Errorf("the known-read filter over a known read set allocates %.1f per run, budget 0", got)
	}
	w := fpgaWorkflow("bs0")
	needs := w.Needs()
	if got := testing.AllocsPerRun(200, func() {
		if _, _, err := f.routeGuaranteed(w, needs, nil, 0.5, 60); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("routeGuaranteed allocates %.1f per run, budget 0", got)
	}
}

// BenchmarkFleetRoute measures the router alone: pricing every site of a
// four-site fleet for one FPGA workflow, by cost (best-effort) and by
// proof (guaranteed: service, deploy and admission bounds per site).
func BenchmarkFleetRoute(b *testing.B) {
	reg := platform.NewRegistry()
	if err := reg.Put(testBitstream("bs0")); err != nil {
		b.Fatal(err)
	}
	f, err := New(reg, Config{Sites: 4, NewCluster: testCluster(2)})
	if err != nil {
		b.Fatal(err)
	}
	w := fpgaWorkflow("bs0")
	needs := w.Needs()
	b.Run("best-effort", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := f.route("tenant00", 1, true, needs, nil, 0.5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("guaranteed", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := f.routeGuaranteed(w, needs, nil, 0.5, 60); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// kmeansMapFleet is the warm data-plane fixture: a started four-site
// fleet with both k-means map kernels staged everywhere, one job's point
// partitions scattered over the sites and its centroids on each, and
// every site's dataset store bounded to half its share of the working
// set, so serving the map workflows fetches, publishes and evicts. It
// returns one map workflow per partition: assign reads the partition's
// points and the centroids and writes its weights; fold reads weights
// and points and writes the partial sums. trace, when set, receives the
// fleet's events.
func kmeansMapFleet(trace func(Event)) (*Fleet, []*runtime.Workflow, error) {
	const sites, parts = 4, 8
	const pt, wt, pa, ce = 1 << 20, 1 << 16, 1 << 12, 1 << 12
	kernels := []string{"bs-assign", "bs-fold"}
	reg := platform.NewRegistry()
	for _, id := range kernels {
		if err := reg.Put(testBitstream(id)); err != nil {
			return nil, nil, err
		}
	}
	working := int64(parts*(pt+wt+pa) + ce)
	f, err := New(reg, Config{Sites: sites, NewCluster: testCluster(2), CacheSlots: 2,
		DatasetStoreBytes: working / 2 / sites, Trace: trace})
	if err != nil {
		return nil, nil, err
	}
	if err := f.Start(); err != nil {
		return nil, nil, err
	}
	for _, id := range kernels {
		if _, err := f.WarmAll(id, 0); err != nil {
			return nil, nil, err
		}
	}
	centroids := dataset.Single("job/centroids", ce)
	var maps []*runtime.Workflow
	for p := 0; p < parts; p++ {
		point := dataset.Ref{Name: "job/points", Partition: p, Bytes: pt}
		weight := dataset.Ref{Name: "job/weights", Partition: p, Bytes: wt}
		partial := dataset.Ref{Name: "job/partial", Partition: p, Bytes: pa}
		if err := f.PlaceDataset(p%sites, 0, point); err != nil {
			return nil, nil, err
		}
		w := runtime.NewWorkflow()
		for _, spec := range []runtime.TaskSpec{
			{Name: "assign", Flops: 1e9, NeedsFPGA: true, BitstreamID: kernels[0],
				Reads: []dataset.Ref{point, centroids}, Writes: []dataset.Ref{weight}},
			{Name: "fold", Deps: []string{"assign"}, Flops: 1e8, NeedsFPGA: true, BitstreamID: kernels[1],
				Reads: []dataset.Ref{weight, point}, Writes: []dataset.Ref{partial}},
		} {
			if err := w.Submit(spec); err != nil {
				return nil, nil, err
			}
		}
		maps = append(maps, w)
	}
	for s := 0; s < sites; s++ {
		if err := f.PlaceDataset(s, 0, centroids); err != nil {
			return nil, nil, err
		}
	}
	return f, maps, nil
}

// mapDriver returns a step that submits the next map workflow, round
// robin, arriving at the previous one's completion, and waits it out.
func mapDriver(f *Fleet, maps []*runtime.Workflow) func() (Result, error) {
	i, arrival := 0, 0.0
	return func() (Result, error) {
		tk, err := f.Submit(Request{Tenant: "job", Workflow: maps[i%len(maps)], Arrival: arrival})
		if err != nil {
			return Result{}, err
		}
		res, err := tk.Wait()
		i, arrival = i+1, res.Completion
		return res, err
	}
}

// warmMapFleet builds the fixture and serves every map workflow four
// times, returning a step that must not fail.
func warmMapFleet(tb testing.TB) (*Fleet, func()) {
	tb.Helper()
	f, maps, err := kmeansMapFleet(nil)
	if err != nil {
		tb.Fatal(err)
	}
	step := mapDriver(f, maps)
	submit := func() {
		if _, err := step(); err != nil {
			tb.Fatal(err)
		}
	}
	for range 4 * len(maps) {
		submit()
	}
	return f, submit
}

// TestFleetDataSubmitAllocBudget pins a warm data-plane Submit — route by
// data locality, fetch the missing partitions, serve on the site engine,
// publish the outputs — at its allocation count: the ticket, its name,
// and the engine's schedule and future. The resolved workflow carries its
// interned reads, outputs and needs, so none of that is rebuilt per
// submission.
func TestFleetDataSubmitAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector defeats sync.Pool reuse")
	}
	f, submit := warmMapFleet(t)
	defer f.Shutdown()
	const budget = 6
	if got := testing.AllocsPerRun(200, submit); got > budget {
		t.Errorf("warm data-plane Submit allocates %.1f per run, budget %d", got, budget)
	}
	if st := f.Stats(); st.DatasetFetchedBytes() == 0 || st.Failed != 0 {
		t.Fatalf("fixture fetched %dB with %d failures: want a data plane under pressure",
			st.DatasetFetchedBytes(), st.Failed)
	}
}

// BenchmarkFleetData measures the fleet data plane end to end: one warm
// Submit+Wait of a k-means map workflow on four sites with placed
// partitions and stores at half the working set (kmeansMapFleet).
func BenchmarkFleetData(b *testing.B) {
	f, submit := warmMapFleet(b)
	defer f.Shutdown()
	b.ReportAllocs()
	for b.Loop() {
		submit()
	}
}
