package region

import (
	"testing"

	"everest/internal/dataset"
	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// dataWorkflow is a single software task reading and writing the given
// dataset partitions (data-plane routing fixture; no FPGA stage so the
// artifact path stays out of the cost).
func dataWorkflow(reads, writes []dataset.Ref) *runtime.Workflow {
	w := runtime.NewWorkflow()
	if err := w.Submit(runtime.TaskSpec{
		Name: "stage", Flops: 1e9, Reads: reads, Writes: writes,
	}); err != nil {
		panic(err)
	}
	return w
}

// place seeds partitions into region r's store and the federation
// catalog at time 0, the ingest a region scenario runs before serving.
func place(f *Federation, r int, refs ...dataset.Ref) {
	for _, ref := range refs {
		p := dataset.Intern(ref)
		f.regions[r].dstore.Publish(dataset.Version{Ref: ref, ID: p.ID, Workflow: "(placed)", Task: "(placed)"})
		f.regions[r].stats.DataPublished++
		f.dataCat.Add(p.ID)
	}
}

// resident reports whether region r's store holds the partition.
func resident(f *Federation, r int, ref dataset.Ref) bool {
	return f.regions[r].dstore.Holds(dataset.Intern(ref).ID)
}

func submitData(t *testing.T, f *Federation, req Request) Result {
	t.Helper()
	h, err := f.SubmitAt(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRegionDatasetLocalityRouting: with a big partition resident in one
// region, the router sends its reader there — the WAN transfer the other
// region would pay prices it out of the argmin — and the serve stages
// nothing.
func TestRegionDatasetLocalityRouting(t *testing.T) {
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 2})
	defer f.Shutdown()
	part := dataset.Ref{Name: "train/points", Bytes: 1 << 30}
	place(f, 1, part)
	if !resident(f, 1, part) || resident(f, 0, part) {
		t.Fatal("placement did not land in region 1 only")
	}
	res := submitData(t, f, Request{Name: "reader", Home: 0, Arrival: 0, Class: Interactive,
		Workflow: dataWorkflow([]dataset.Ref{part}, nil)})
	if res.Region != "region01" {
		t.Fatalf("routed to %s, want region01 (data gravity)", res.Region)
	}
	if res.DataFetch != 0 {
		t.Fatalf("DataFetch = %g at the resident region, want 0", res.DataFetch)
	}
}

// TestRegionWANDataFetch pins the serve-path staging cost: a reader held
// at its home region by an expensive payload handoff WAN-fetches the
// remote partition at exactly the stack's transfer time, the fetched
// copy becomes resident (the second serve is free), and the stats and
// trace account the transfer once, traced at its start.
func TestRegionWANDataFetch(t *testing.T) {
	var events []Event
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 2,
		Trace: func(e Event) { events = append(events, e) }})
	defer f.Shutdown()
	part := dataset.Ref{Name: "train/points", Bytes: 1 << 28}
	place(f, 1, part)
	// The 4 GiB input payload makes the handoff to region 1 far more
	// expensive than fetching the 256 MiB partition home.
	res := submitData(t, f, Request{Name: "reader", Home: 0, Arrival: 0, Class: Interactive,
		InputBytes: 4 << 30, Workflow: dataWorkflow([]dataset.Ref{part}, nil)})
	if res.Region != "region00" {
		t.Fatalf("routed to %s, want region00 (payload gravity wins)", res.Region)
	}
	wan := netsim.WAN10G()
	if want := wan.SendSeconds(part.Bytes); res.DataFetch != want {
		t.Fatalf("DataFetch = %g, want the WAN transfer %g", res.DataFetch, want)
	}
	if !res.Cold {
		t.Fatal("a serve that WAN-staged data must be Cold")
	}
	if !resident(f, 0, part) {
		t.Fatal("fetched partition not cached in the region store")
	}
	// Resident now: the same read later is free.
	res2 := submitData(t, f, Request{Name: "reader2", Home: 0, Arrival: res.Completion, Class: Interactive,
		InputBytes: 4 << 30, Workflow: dataWorkflow([]dataset.Ref{part}, nil)})
	if res2.Region != "region00" || res2.DataFetch != 0 {
		t.Fatalf("second read: region=%s DataFetch=%g, want a free home serve", res2.Region, res2.DataFetch)
	}
	st := f.Stats()
	rs := st.Regions[0]
	if st.DataFetches != 1 || rs.DataFetches != 1 || rs.DataFetchedBytes != part.Bytes {
		t.Fatalf("fetch accounting: fed=%d region=%d bytes=%d, want 1/1/%d",
			st.DataFetches, rs.DataFetches, rs.DataFetchedBytes, part.Bytes)
	}
	fetches := 0
	for _, e := range events {
		if e.Kind == EventDataFetch {
			fetches++
			// Stamped at the fetch start, like every other fetch event:
			// the serve arrives at 0 and stages nothing before the data.
			if e.Time != 0 {
				t.Fatalf("EventDataFetch at %g, want the fetch start 0", e.Time)
			}
		}
	}
	if fetches != 1 {
		t.Fatalf("%d EventDataFetch events, want 1", fetches)
	}
}

// TestRegionCrossWorkflowPublish: a producer's Writes reach the serving
// region's store and the federation catalog, so an unrelated consumer
// submitted at another gateway is routed to the data and stages nothing.
func TestRegionCrossWorkflowPublish(t *testing.T) {
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 2})
	defer f.Shutdown()
	model := dataset.Ref{Name: "shared/model", Bytes: 1 << 30}
	prod := submitData(t, f, Request{Name: "producer", Home: 0, Arrival: 0, Class: Interactive,
		Workflow: dataWorkflow(nil, []dataset.Ref{model})})
	if prod.Region != "region00" {
		t.Fatalf("producer served at %s, want its home region00", prod.Region)
	}
	if !resident(f, 0, model) {
		t.Fatal("producer output not published into the region store")
	}
	cons := submitData(t, f, Request{Name: "consumer", Home: 1, Arrival: prod.Completion, Class: Interactive,
		Workflow: dataWorkflow([]dataset.Ref{model}, nil)})
	if cons.Region != "region00" || cons.DataFetch != 0 {
		t.Fatalf("consumer: region=%s DataFetch=%g, want a free serve at the producer's region",
			cons.Region, cons.DataFetch)
	}
	if f.Stats().DataFetches != 0 {
		t.Fatal("cross-workflow reuse paid a WAN fetch")
	}
}

// TestRegionUnknownReadsFree: a ref the federation catalog has never
// seen is outside source data — it prices at zero everywhere, stages
// nothing, and leaves the reader at its home region.
func TestRegionUnknownReadsFree(t *testing.T) {
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 2})
	defer f.Shutdown()
	ext := dataset.Ref{Name: "external/archive", Bytes: 1 << 40}
	res := submitData(t, f, Request{Name: "reader", Home: 0, Arrival: 0, Class: Interactive,
		Workflow: dataWorkflow([]dataset.Ref{ext}, nil)})
	if res.Region != "region00" || res.DataFetch != 0 {
		t.Fatalf("region=%s DataFetch=%g, want a free home serve", res.Region, res.DataFetch)
	}
	if st := f.Stats(); st.DataFetches != 0 || st.Regions[0].DataFetchedBytes != 0 {
		t.Fatalf("unknown read shipped bytes: %+v", st)
	}
}

// TestDataEstimateSingleCharge is the data-plane half of the route-cost
// audit: each known partition is charged exactly once — zero when
// resident, the WAN transfer when reachable, the fallback penalty when
// the region is partitioned off — and the arms are never additive.
func TestDataEstimateSingleCharge(t *testing.T) {
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 1,
		Partitions: []Partition{{Region: 0, From: 10, Until: 20}}})
	defer f.Shutdown()
	resident := dataset.Ref{Name: "resident", Bytes: 1 << 27}
	missing := dataset.Ref{Name: "missing", Bytes: 1 << 28}
	place(f, 0, resident)
	r := f.regions[0]
	res, miss := dataset.Intern(resident), dataset.Intern(missing)
	known := []dataset.Part{res, miss}
	if got := r.dstore.Estimate(known, 0, r.dataLink); got != f.wan.SendSeconds(missing.Bytes) {
		t.Fatalf("reachable estimate = %g, want exactly one WAN transfer %g",
			got, f.wan.SendSeconds(missing.Bytes))
	}
	// Inside the partition window the missing ref costs the flat fallback
	// penalty instead of — never in addition to — the WAN transfer.
	if got := r.dstore.Estimate(known, 15, r.dataLink); got != fallbackSeconds {
		t.Fatalf("partitioned estimate = %g, want fallbackSeconds %g",
			got, fallbackSeconds)
	}
	if got := r.dstore.Estimate([]dataset.Part{res}, 0, r.dataLink); got != 0 {
		t.Fatalf("resident estimate = %g, want 0", got)
	}
	// The catalog is the gate in front of the estimate.
	unseen := dataset.Intern(dataset.Ref{Name: "never-seen"})
	if got := f.dataCat.Known([]dataset.Part{res, unseen}); len(got) != 1 || got[0] != res {
		t.Fatalf("known reads = %v, want the resident ref only", got)
	}
}

// TestRegionDataPrefetch mirrors TestPrefetchWarmsTheNextWave for the
// data plane: two apps churn a region store that holds one partition;
// after the window roll the forecaster re-stages the hotter app's
// partition, so its next arrival serves with zero staging stall.
func TestRegionDataPrefetch(t *testing.T) {
	// Each partition leaves 1 KiB of the region store free: it fits one.
	partA := dataset.Ref{Name: "app-a/points", Bytes: datasetStoreBytes - 1024}
	partB := dataset.Ref{Name: "app-b/points", Bytes: datasetStoreBytes - 1024}
	run := func(prefetch bool) (Result, Stats) {
		f := newTestFed(t, platform.NewRegistry(), Config{Regions: 1,
			Prefetch: prefetch, WindowSeconds: 1, WarmThreshold: 0.5})
		defer f.Shutdown()
		// Placing B evicts A: the store fits one partition.
		place(f, 0, partA)
		place(f, 0, partB)
		submit := func(app string, part dataset.Ref, at float64) Result {
			return submitData(t, f, Request{Name: app, App: app, Home: 0, Arrival: at, Class: Interactive,
				Workflow: dataWorkflow([]dataset.Ref{part}, nil)})
		}
		// Window 0: app a is the hot one; app b churns its partition out.
		submit("a", partA, 0.10)
		submit("a", partA, 0.20)
		submit("b", partB, 0.50)
		// Past the roll at t=1: with prefetch on, the roll re-staged partA
		// off the serving path before this arrival.
		last := submit("a", partA, 1.10)
		return last, f.Shutdown()
	}

	cold, stOff := run(false)
	if cold.DataFetch <= 0 {
		t.Fatalf("without prefetch DataFetch = %g, want a cold re-fetch after churn", cold.DataFetch)
	}
	if stOff.DataPrefetches != 0 {
		t.Fatalf("prefetch off but DataPrefetches = %d", stOff.DataPrefetches)
	}

	warm, stOn := run(true)
	if warm.DataFetch != 0 || warm.Cold {
		t.Fatalf("with prefetch DataFetch=%g cold=%v, want a fully warm serve", warm.DataFetch, warm.Cold)
	}
	if stOn.DataPrefetches == 0 {
		t.Fatal("prefetch staged no partitions")
	}
	if warm.Latency >= cold.Latency {
		t.Fatalf("warm latency %g !< cold latency %g", warm.Latency, cold.Latency)
	}
}

// TestRegionDataStoreBounded: the byte bound evicts oldest-first and the
// eviction counter moves (region-tier mirror of the fleet store test).
func TestRegionDataStoreBounded(t *testing.T) {
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 1})
	defer f.Shutdown()
	// Three partitions of half the store each: the store holds two.
	refs := []dataset.Ref{{Name: "pts", Bytes: datasetStoreBytes / 2}, {Name: "pts", Partition: 1, Bytes: datasetStoreBytes / 2},
		{Name: "pts", Partition: 2, Bytes: datasetStoreBytes / 2}}
	place(f, 0, refs...)
	if resident(f, 0, refs[0]) {
		t.Fatal("oldest partition survived a full store")
	}
	if !resident(f, 0, refs[1]) || !resident(f, 0, refs[2]) {
		t.Fatal("newest partitions missing")
	}
	if st := f.Stats().Regions[0]; st.DataEvictions != 1 || st.DataPublished != 3 {
		t.Fatalf("DataEvictions=%d DataPublished=%d, want 1/3", st.DataEvictions, st.DataPublished)
	}
}
