package region

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"everest/internal/dataset"
	"everest/internal/fleet"
	"everest/internal/hls"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// testBitstream returns a small deployable artifact that fits every
// catalog device (fleet test fixture shape).
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

// heavyWorkflow backs a single site up for a long stretch of modelled
// time (routing tests use it to make the home queue expensive).
func heavyWorkflow() *runtime.Workflow {
	w := runtime.NewWorkflow()
	if err := w.Submit(runtime.TaskSpec{Name: "only", Flops: 5e13, OutputBytes: 1 << 18}); err != nil {
		panic(err)
	}
	return w
}

func testClusters(nodes int) func(int, int) *platform.Cluster {
	return func(region, site int) *platform.Cluster {
		var ns []*platform.Node
		for i := 0; i < nodes; i++ {
			ns = append(ns, platform.NewNode(fmt.Sprintf("node%02d", i),
				platform.XeonModel(), platform.AlveoU55C()))
		}
		return platform.NewCluster(ns...)
	}
}

func newTestFed(t *testing.T, catalog *platform.Registry, cfg Config) *Federation {
	t.Helper()
	if cfg.Regions == 0 {
		cfg.Regions = 2
	}
	if cfg.SitesPerRegion == 0 {
		cfg.SitesPerRegion = 1
	}
	if cfg.NewCluster == nil {
		cfg.NewCluster = testClusters(1)
	}
	f, err := New(catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidates(t *testing.T) {
	cat := platform.NewRegistry()
	cases := []struct {
		name string
		cat  *platform.Registry
		cfg  Config
	}{
		{"nil catalog", nil, Config{Regions: 1, SitesPerRegion: 1, NewCluster: testClusters(1)}},
		{"zero regions", cat, Config{SitesPerRegion: 1, NewCluster: testClusters(1)}},
		{"zero sites", cat, Config{Regions: 1, NewCluster: testClusters(1)}},
		{"nil cluster builder", cat, Config{Regions: 1, SitesPerRegion: 1}},
		{"partition out of range", cat, Config{Regions: 1, SitesPerRegion: 1, NewCluster: testClusters(1),
			Partitions: []Partition{{Region: 3, From: 0, Until: 1}}}},
		{"partition empty interval", cat, Config{Regions: 1, SitesPerRegion: 1, NewCluster: testClusters(1),
			Partitions: []Partition{{Region: 0, From: 2, Until: 2}}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.cat, tc.cfg); err == nil {
			t.Errorf("%s: New succeeded, want error", tc.name)
		}
	}
}

// TestNewRefusesNonFiniteSettings: a NaN or infinite forecast window
// never rolls, a non-finite warm threshold qualifies no app, and a NaN
// partition bound slips past the empty-interval check, so New must
// refuse each with an error naming the field. Zero and negative window
// and threshold still mean the default.
func TestNewRefusesNonFiniteSettings(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := func() Config {
		return Config{Regions: 1, SitesPerRegion: 1, NewCluster: testClusters(1), Prefetch: true}
	}
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"WindowSeconds", func(c *Config) { c.WindowSeconds = nan }},
		{"WindowSeconds", func(c *Config) { c.WindowSeconds = inf }},
		{"WindowSeconds", func(c *Config) { c.WindowSeconds = -inf }},
		{"WarmThreshold", func(c *Config) { c.WarmThreshold = nan }},
		{"WarmThreshold", func(c *Config) { c.WarmThreshold = inf }},
		{"From", func(c *Config) { c.Partitions = []Partition{{Region: 0, From: nan, Until: 1}} }},
		{"Until", func(c *Config) { c.Partitions = []Partition{{Region: 0, From: 0, Until: nan}} }},
		{"Until", func(c *Config) { c.Partitions = []Partition{{Region: 0, From: 0, Until: inf}} }},
	} {
		cfg := base()
		tc.set(&cfg)
		f, err := New(platform.NewRegistry(), cfg)
		if err == nil {
			f.Shutdown()
			t.Errorf("%s: New accepted %+v", tc.field, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name the field", tc.field, err)
		}
	}
	for _, v := range []float64{0, -1} {
		cfg := base()
		cfg.WindowSeconds, cfg.WarmThreshold = v, v
		f, err := New(platform.NewRegistry(), cfg)
		if err != nil {
			t.Fatalf("window and threshold %g: %v, want the defaults", v, err)
		}
		if f.cfg.WindowSeconds != 0.25 || f.cfg.WarmThreshold != 0.5 {
			t.Fatalf("window and threshold %g became %g and %g, want 0.25 and 0.5", v, f.cfg.WindowSeconds, f.cfg.WarmThreshold)
		}
		f.Shutdown()
	}
}

// storeIDs returns the IDs among ids that region r's store holds, in
// order.
func storeIDs(f *Federation, r int, ids ...string) []string {
	var held []string
	for _, id := range ids {
		if _, err := f.regions[r].reg.Entry(id); err == nil {
			held = append(held, id)
		}
	}
	return held
}

func TestSubmitValidates(t *testing.T) {
	cat := platform.NewRegistry()
	f := newTestFed(t, cat, Config{Regions: 1})
	defer f.Shutdown()
	if _, err := f.SubmitAt(Request{Home: 0, Arrival: 0}); err == nil {
		t.Error("nil workflow accepted")
	}
	if _, err := f.SubmitAt(Request{Workflow: cpuWorkflow(), Home: 7, Arrival: 0}); err == nil {
		t.Error("out-of-range home accepted")
	}
	if _, err := f.SubmitAt(Request{Workflow: cpuWorkflow(), Class: Guaranteed, Arrival: 0}); err == nil {
		t.Error("guaranteed without deadline accepted")
	}
	if _, err := f.SubmitAt(Request{Workflow: cpuWorkflow(), Arrival: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SubmitAt(Request{Workflow: cpuWorkflow(), Arrival: 1}); err == nil {
		t.Error("arrival before the frontier accepted")
	}
}

func TestInteractiveServedAtHomePaysWANOnce(t *testing.T) {
	cat := platform.NewRegistry()
	cat.Put(testBitstream("bs-a"))
	f := newTestFed(t, cat, Config{Regions: 1, CacheSlots: 1})
	defer f.Shutdown()

	h, err := f.SubmitAt(Request{App: "a", Workflow: fpgaWorkflow("bs-a"),
		Class: Interactive, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Region != "region00" || res.Handoff != 0 {
		t.Fatalf("served at %s with handoff %g, want home region00 / 0", res.Region, res.Handoff)
	}
	if res.Fetch <= 0 || res.Deploy <= 0 || !res.Cold {
		t.Fatalf("first serve fetch=%g deploy=%g cold=%v, want a fully cold serve", res.Fetch, res.Deploy, res.Cold)
	}
	if ids := storeIDs(f, 0, "bs-a"); len(ids) != 1 {
		t.Fatalf("region store = %v, want [bs-a]", ids)
	}

	// Same app later: the artifact is in the region store and site cache.
	h, err = f.SubmitAt(Request{App: "a", Workflow: fpgaWorkflow("bs-a"),
		Class: Interactive, Arrival: res.Completion + 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Fetch != 0 || res2.Deploy != 0 || res2.Cold {
		t.Fatalf("second serve fetch=%g deploy=%g cold=%v, want warm", res2.Fetch, res2.Deploy, res2.Cold)
	}
	st := f.Shutdown()
	if st.WANFetches != 1 || st.ColdServes != 1 || st.Completed != 2 {
		t.Fatalf("WANFetches=%d ColdServes=%d Completed=%d, want 1/1/2", st.WANFetches, st.ColdServes, st.Completed)
	}
}

func TestHandoffWhenHomeIsBusy(t *testing.T) {
	cat := platform.NewRegistry()
	f := newTestFed(t, cat, Config{Regions: 2})
	defer f.Shutdown()

	// Back the home region's only site up far past the second arrival.
	h, err := f.SubmitAt(Request{App: "big", Workflow: heavyWorkflow(), Class: Interactive, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := h.Wait(); err != nil || res.Completion < 1 {
		t.Fatalf("heavy workflow completion %g (%v), want a long run", res.Completion, err)
	}

	h, err = f.SubmitAt(Request{App: "small", Workflow: cpuWorkflow(), Class: Interactive,
		Arrival: 0.1, InputBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Region != "region01" {
		t.Fatalf("served at %s, want handoff to idle region01", res.Region)
	}
	if res.Handoff <= 0 {
		t.Fatalf("handoff stall %g, want the WAN payload transfer priced in", res.Handoff)
	}
	st := f.Shutdown()
	if st.Regions[1].Handoffs != 1 || st.Regions[0].HandedOff != 1 {
		t.Fatalf("Handoffs=%d HandedOff=%d, want 1/1", st.Regions[1].Handoffs, st.Regions[0].HandedOff)
	}
	if st.Handoffs != 1 {
		t.Fatalf("aggregate Handoffs = %d, want 1", st.Handoffs)
	}
}

func TestPartitionForcesLocalServing(t *testing.T) {
	cat := platform.NewRegistry()
	cat.Put(testBitstream("bs-a"))
	f := newTestFed(t, cat, Config{Regions: 2,
		Partitions: []Partition{{Region: 0, From: 0, Until: 1000}}})
	defer f.Shutdown()

	// Back home up: without the partition this arrival would hand off.
	h, err := f.SubmitAt(Request{App: "big", Workflow: heavyWorkflow(), Class: Interactive, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	h, err = f.SubmitAt(Request{App: "a", Workflow: fpgaWorkflow("bs-a"), Class: Interactive, Arrival: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Cut off from both the other region and the catalog: served at home,
	// with the bitstream degraded to software instead of WAN-fetched.
	if res.Region != "region00" || res.Handoff != 0 {
		t.Fatalf("served at %s handoff=%g, want local region00", res.Region, res.Handoff)
	}
	if res.Fetch != 0 {
		t.Fatalf("fetch stall %g through a partition, want 0", res.Fetch)
	}
	if ids := storeIDs(f, 0, "bs-a"); len(ids) != 0 {
		t.Fatalf("partitioned store = %v, want empty", ids)
	}
	st := f.Shutdown()
	if st.Regions[0].PartitionSkips == 0 {
		t.Fatal("partitioned fetch must be counted in PartitionSkips")
	}
	if st.WANFetches != 0 {
		t.Fatalf("WANFetches = %d through a partition, want 0", st.WANFetches)
	}
}

func TestGuaranteedServedWithProvenBound(t *testing.T) {
	cat := platform.NewRegistry()
	f := newTestFed(t, cat, Config{Regions: 1})
	defer f.Shutdown()
	h, err := f.SubmitAt(Request{App: "g", Workflow: cpuWorkflow(), Class: Guaranteed,
		Deadline: 30, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Guaranteed || res.Bound <= 0 {
		t.Fatalf("guaranteed=%v bound=%g, want a proven bound", res.Guaranteed, res.Bound)
	}
	if res.Latency > res.Bound {
		t.Fatalf("latency %g exceeds proven bound %g", res.Latency, res.Bound)
	}
	st := f.Shutdown()
	if st.Guaranteed != 1 || st.BoundViolations != 0 {
		t.Fatalf("Guaranteed=%d BoundViolations=%d, want 1/0", st.Guaranteed, st.BoundViolations)
	}
}

func TestGuaranteedRejectedWhenUnprovable(t *testing.T) {
	cat := platform.NewRegistry()
	f := newTestFed(t, cat, Config{Regions: 1})
	defer f.Shutdown()
	_, err := f.SubmitAt(Request{App: "g", Workflow: cpuWorkflow(), Class: Guaranteed,
		Deadline: 1e-9, Arrival: 0})
	if err == nil {
		t.Fatal("impossible deadline admitted")
	}
	if !errors.Is(err, fleet.ErrSaturated) {
		t.Fatalf("rejection error = %v, want fleet.ErrSaturated", err)
	}
	st := f.Shutdown()
	if st.Rejected != 1 || st.Submitted != 0 {
		t.Fatalf("Rejected=%d Submitted=%d, want 1/0", st.Rejected, st.Submitted)
	}
}

// TestBatchHeldBehindGuaranteedAndPreempted: batch arriving behind a
// guaranteed serve is held, a priority arrival pushes it back once, and
// the push is traced: one EventPreempt for the one counted preemption.
func TestBatchHeldBehindGuaranteedAndPreempted(t *testing.T) {
	cat := platform.NewRegistry()
	preempts := 0
	f := newTestFed(t, cat, Config{Regions: 1, Trace: func(ev Event) {
		if ev.Kind == EventPreempt {
			preempts++
		}
	}})
	defer f.Shutdown()

	// A guaranteed serve owns the near frontier.
	gh, err := f.SubmitAt(Request{App: "g", Workflow: cpuWorkflow(), Class: Guaranteed,
		Deadline: 30, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := gh.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if gres.Completion <= 0.001 {
		t.Fatalf("guaranteed completion %g, want a frontier to hold batch behind", gres.Completion)
	}

	// Batch arriving inside the guaranteed window is parked, not served.
	bh, err := f.SubmitAt(Request{App: "b", Workflow: cpuWorkflow(), Class: Batch, Arrival: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bh.Wait(); err == nil || !strings.Contains(err.Error(), "Drain") {
		t.Fatalf("Wait on a held batch = %v, want an error naming Drain", err)
	}

	// A priority arrival lands exactly when the batch is due: the batch is
	// pushed past the priority completion plus the restart penalty.
	ih, err := f.SubmitAt(Request{App: "i", Workflow: cpuWorkflow(), Class: Interactive,
		Arrival: gres.Completion + 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ires, err := ih.Wait()
	if err != nil {
		t.Fatal(err)
	}

	f.Drain(ires.Completion + 1)
	bres, err := bh.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if bres.Preemptions != 1 {
		t.Fatalf("batch preemptions = %d, want 1", bres.Preemptions)
	}
	if bres.Hold <= 0 {
		t.Fatalf("batch hold = %g, want time parked in the hold queue", bres.Hold)
	}
	if got := bres.Arrival + bres.Hold; got <= ires.Completion {
		t.Fatalf("batch released at %g, want after the interactive completion %g", got, ires.Completion)
	}
	st := f.Shutdown()
	if st.Regions[0].Holds != 1 || st.Preemptions != 1 {
		t.Fatalf("Holds=%d Preemptions=%d, want 1/1", st.Regions[0].Holds, st.Preemptions)
	}
	if preempts != st.Preemptions {
		t.Fatalf("%d EventPreempt traced for %d counted preemptions", preempts, st.Preemptions)
	}
	if st.BoundViolations != 0 {
		t.Fatalf("BoundViolations = %d, want 0", st.BoundViolations)
	}
}

func TestBatchServedInlineWhenNoFrontier(t *testing.T) {
	cat := platform.NewRegistry()
	f := newTestFed(t, cat, Config{Regions: 1})
	defer f.Shutdown()
	h, err := f.SubmitAt(Request{App: "b", Workflow: cpuWorkflow(), Class: Batch, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Hold != 0 || res.Class != Batch {
		t.Fatalf("idle-federation batch hold=%g class=%v, want immediate serve", res.Hold, res.Class)
	}
}

// TestPrefetchWarmsTheNextWave is the mechanism test for predictive
// prefetch: two apps churn a one-slot region store and one-slot site
// cache; after a window roll the forecaster re-stages the hotter app, so
// its next arrival is fully warm. The same arrival stream without
// prefetch leaves that arrival cold — the end-to-end contrast the bench
// gates at scale.
func TestPrefetchWarmsTheNextWave(t *testing.T) {
	run := func(prefetch bool) (Result, Stats) {
		cat := platform.NewRegistry()
		cat.Put(testBitstream("bs-a"))
		cat.Put(testBitstream("bs-b"))
		f := newTestFed(t, cat, Config{Regions: 1, CacheSlots: 1, StoreSlots: 1,
			Prefetch: prefetch, WindowSeconds: 1, WarmThreshold: 0.5})
		defer f.Shutdown()
		submit := func(app, bs string, at float64) Result {
			h, err := f.SubmitAt(Request{App: app, Workflow: fpgaWorkflow(bs),
				Class: Interactive, Arrival: at})
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		// Window 0: app a is the hot one (two arrivals); app b churns the
		// store and the cache behind it.
		submit("a", "bs-a", 0.10)
		submit("a", "bs-a", 0.20)
		submit("b", "bs-b", 0.50)
		// Past the roll at t=1: with prefetch on, the roll re-staged bs-a
		// (store fetch + cache warm) before this arrival.
		last := submit("a", "bs-a", 1.10)
		return last, f.Shutdown()
	}

	cold, stOff := run(false)
	if !cold.Cold || cold.Fetch <= 0 {
		t.Fatalf("without prefetch: cold=%v fetch=%g, want a cold re-fetch after churn", cold.Cold, cold.Fetch)
	}
	if stOff.PrefetchFetches != 0 || stOff.Warms != 0 {
		t.Fatalf("prefetch off but PrefetchFetches=%d Warms=%d", stOff.PrefetchFetches, stOff.Warms)
	}

	warm, stOn := run(true)
	if warm.Cold || warm.Fetch != 0 || warm.Deploy != 0 {
		t.Fatalf("with prefetch: cold=%v fetch=%g deploy=%g, want a fully warm serve", warm.Cold, warm.Fetch, warm.Deploy)
	}
	if stOn.PrefetchFetches == 0 || stOn.Warms == 0 {
		t.Fatalf("PrefetchFetches=%d Warms=%d, want the staging accounted", stOn.PrefetchFetches, stOn.Warms)
	}
	if warm.Latency >= cold.Latency {
		t.Fatalf("warm latency %g !< cold latency %g", warm.Latency, cold.Latency)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	cat := platform.NewRegistry()
	cat.Put(testBitstream("bs-a"))
	cat.Put(testBitstream("bs-b"))
	f := newTestFed(t, cat, Config{Regions: 1, StoreSlots: 1})
	defer f.Shutdown()
	submit := func(bs string, at float64) Result {
		h, err := f.SubmitAt(Request{App: bs, Workflow: fpgaWorkflow(bs), Class: Interactive, Arrival: at})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	submit("bs-a", 0)
	submit("bs-b", 1)
	if ids := storeIDs(f, 0, "bs-a", "bs-b"); len(ids) != 1 || ids[0] != "bs-b" {
		t.Fatalf("store after churn = %v, want the LRU bs-a evicted", ids)
	}
	st := f.Shutdown()
	if st.Regions[0].StoreEvictions != 1 {
		t.Fatalf("StoreEvictions = %d, want 1", st.Regions[0].StoreEvictions)
	}

	// A hit refreshes recency: with two slots, serving a, b, a, c evicts
	// b, the least recently used, not a, the least recently fetched.
	cat.Put(testBitstream("bs-c"))
	f = newTestFed(t, cat, Config{Regions: 1, StoreSlots: 2})
	defer f.Shutdown()
	for i, bs := range []string{"bs-a", "bs-b", "bs-a", "bs-c"} {
		submit(bs, float64(i))
	}
	if ids := storeIDs(f, 0, "bs-a", "bs-b", "bs-c"); !reflect.DeepEqual(ids, []string{"bs-a", "bs-c"}) {
		t.Fatalf("store after a, b, a, c = %v, want [bs-a bs-c] (the hit on a refreshed it)", ids)
	}
	if st := f.Shutdown(); st.Regions[0].StoreEvictions != 1 || st.WANFetches != 3 {
		t.Fatalf("StoreEvictions = %d, WANFetches = %d, want 1 and 3", st.Regions[0].StoreEvictions, st.WANFetches)
	}
}

// TestStoreCountersMatchTrace: the image store's counters are read from
// the store and the fetch counters are kept by hand, and both must agree
// with the trace on a churning, prefetching federation: one
// EventEvictStore per eviction, one EventFetch per serving-path fetch and
// one EventPrefetch per prefetch.
func TestStoreCountersMatchTrace(t *testing.T) {
	cat := platform.NewRegistry()
	ids := []string{"bs-a", "bs-b", "bs-c", "bs-d"}
	for _, id := range ids {
		cat.Put(testBitstream(id))
	}
	counts := map[EventKind]int{}
	f := newTestFed(t, cat, Config{Regions: 2, CacheSlots: 1, StoreSlots: 1,
		Prefetch: true, WindowSeconds: 1, WarmThreshold: 0.25,
		Trace: func(e Event) { counts[e.Kind]++ }})
	defer f.Shutdown()
	for i := range 48 {
		// Apps a and b are hot in even seconds, c and d in odd ones.
		at := 0.25 * float64(i)
		app := ids[2*(int(at)%2)+i%2]
		h, err := f.SubmitAt(Request{App: app, Workflow: fpgaWorkflow(app), Home: i % 2,
			Class: Interactive, Arrival: at})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Shutdown()
	evictions := 0
	for _, rs := range st.Regions {
		evictions += rs.StoreEvictions
	}
	if evictions == 0 || st.PrefetchFetches == 0 {
		t.Fatalf("StoreEvictions = %d, PrefetchFetches = %d: want a churning, prefetching store",
			evictions, st.PrefetchFetches)
	}
	if counts[EventEvictStore] != evictions {
		t.Errorf("%d EventEvictStore events, StoreEvictions = %d", counts[EventEvictStore], evictions)
	}
	if counts[EventFetch] != st.WANFetches {
		t.Errorf("%d EventFetch events, WANFetches = %d", counts[EventFetch], st.WANFetches)
	}
	if counts[EventPrefetch] != st.PrefetchFetches {
		t.Errorf("%d EventPrefetch events, PrefetchFetches = %d", counts[EventPrefetch], st.PrefetchFetches)
	}
}

func TestAccessorsAndDoubleStart(t *testing.T) {
	cat := platform.NewRegistry()
	f := newTestFed(t, cat, Config{Regions: 2})
	defer f.Shutdown()
	if err := f.Start(); err == nil || !strings.Contains(err.Error(), "already started") {
		t.Fatalf("second Start = %v, want already-started error", err)
	}
}

// TestRouteCandOrdering pins the router's deterministic tie-breaks:
// cheapest first, then the home region, then index order.
func TestRouteCandOrdering(t *testing.T) {
	const home = 1
	cases := []struct {
		name string
		a, b routeCand
		want bool
	}{
		{"cheaper wins", routeCand{idx: 2, cost: 1}, routeCand{idx: 0, cost: 2}, true},
		{"pricier loses", routeCand{idx: 0, cost: 2}, routeCand{idx: 2, cost: 1}, false},
		{"home breaks cost tie", routeCand{idx: home, cost: 1}, routeCand{idx: 0, cost: 1}, true},
		{"non-home loses tie", routeCand{idx: 0, cost: 1}, routeCand{idx: home, cost: 1}, false},
		{"index breaks non-home tie", routeCand{idx: 0, cost: 1}, routeCand{idx: 2, cost: 1}, true},
		// A NaN cost is unordered, as under <: it neither wins nor loses
		// (cmp.Compare would put it first).
		{"NaN cost never wins", routeCand{idx: home, cost: math.NaN()}, routeCand{idx: 2, cost: 1}, false},
		{"nothing beats a NaN cost", routeCand{idx: 2, cost: 1}, routeCand{idx: home, cost: math.NaN()}, false},
	}
	for _, tc := range cases {
		if got := tc.a.less(tc.b, home); got != tc.want {
			t.Errorf("%s: less = %v, want %v", tc.name, got, tc.want)
		}
		// route sorts with compare: it must order exactly as less does.
		if got, rev := tc.a.compare(tc.b, home), tc.b.compare(tc.a, home); (got < 0) != tc.want || got != -rev {
			t.Errorf("%s: compare = %d (reversed %d), want less = %v", tc.name, got, rev, tc.want)
		}
	}
}

// TestTraceEmitsRegionEvents exercises the trace fan-out in the region
// package itself (the sdk determinism harness hashes it end to end).
func TestTraceEmitsRegionEvents(t *testing.T) {
	cat := platform.NewRegistry()
	var events []EventKind
	f := newTestFed(t, cat, Config{Regions: 2, Trace: func(ev Event) {
		events = append(events, ev.Kind)
	}})
	h, err := f.SubmitAt(Request{Workflow: cpuWorkflow(), Class: Interactive, Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	f.Shutdown()
	seen := map[EventKind]bool{}
	for _, k := range events {
		seen[k] = true
	}
	if !seen[EventRoute] || !seen[EventDone] {
		t.Fatalf("trace missing route/done events: %v", events)
	}
}

// TestUnnamedWorkflowName pins the name SubmitAt gives an unnamed
// workflow, the engine's tie-break key: "tenant/wfN", N counting every
// submission the federation accepted, and "default" standing in for an
// empty tenant.
func TestUnnamedWorkflowName(t *testing.T) {
	var names []string
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 2, Trace: func(ev Event) {
		if ev.Kind == EventDone {
			names = append(names, ev.Workflow)
		}
	}})
	defer f.Shutdown()
	for i := 1; i <= 12; i++ {
		req := Request{Tenant: "tenantA", Workflow: cpuWorkflow(), Class: Interactive, Arrival: float64(i)}
		switch i {
		case 5:
			req.Name = "named"
		case 11:
			req.Tenant = ""
		}
		if _, err := f.SubmitAt(req); err != nil {
			t.Fatal(err)
		}
	}
	if len(names) != 12 || names[4] != "named" || names[10] != "default/wf11" || names[11] != "tenantA/wf12" {
		t.Fatalf("served names %q, want named fifth, default/wf11 and tenantA/wf12 last", names)
	}
}

// TestRegionUnknownReadsFree: the region tier stages no datasets, so every
// read is outside source data there: an archive nobody published, and a
// partition a workflow in another region wrote. Both price 0 everywhere,
// so the reader stays at its home region and its serve is not cold.
func TestRegionUnknownReadsFree(t *testing.T) {
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 2})
	defer f.Shutdown()
	serve := func(req Request) Result {
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
	data := func(reads, writes []dataset.Ref) *runtime.Workflow {
		w := runtime.NewWorkflow()
		if err := w.Submit(runtime.TaskSpec{Name: "stage", Flops: 1e9, Reads: reads, Writes: writes}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	model := dataset.Ref{Name: "shared/model", Bytes: 1 << 30}
	ext := dataset.Ref{Name: "external/archive", Bytes: 1 << 40}
	prod := serve(Request{Name: "producer", Home: 1, Arrival: 0, Class: Interactive,
		Workflow: data(nil, []dataset.Ref{model})})
	if prod.Region != "region01" {
		t.Fatalf("producer served at %s, want its home region01", prod.Region)
	}
	res := serve(Request{Name: "reader", Home: 0, Arrival: prod.Completion, Class: Interactive,
		Workflow: data([]dataset.Ref{ext, model}, nil)})
	if res.Region != "region00" || res.DataFetch != 0 || res.Cold {
		t.Fatalf("reader: region=%s DataFetch=%g cold=%v, want a free home serve", res.Region, res.DataFetch, res.Cold)
	}
}

func TestEventKindAndClassStrings(t *testing.T) {
	kinds := []EventKind{EventRoute, EventHandoff, EventFetch, EventPrefetch, EventHold,
		EventRelease, EventPreempt, EventEvictStore, EventReject, EventDone, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("EventKind(%d).String() empty", int(k))
		}
	}
	for _, c := range []Class{Batch, Interactive, Guaranteed, Class(9)} {
		if c.String() == "" {
			t.Errorf("Class(%d).String() empty", int(c))
		}
	}
}

// TestSubmitRejectsNonFiniteInput: a non-finite arrival, or a guaranteed
// request with a non-finite deadline, is a bad request. SubmitAt must say
// so without wrapping fleet.ErrSaturated, count nothing, trace nothing,
// and leave the frontier and the home forecaster as they were.
func TestSubmitRejectsNonFiniteInput(t *testing.T) {
	traced := 0
	f := newTestFed(t, platform.NewRegistry(), Config{Regions: 1, Trace: func(Event) { traced++ }})
	defer f.Shutdown()
	nan, inf := math.NaN(), math.Inf(1)
	before := f.Stats()
	for _, req := range []Request{
		{App: "x", Workflow: cpuWorkflow(), Class: Interactive, Arrival: nan},
		{App: "x", Workflow: cpuWorkflow(), Class: Batch, Arrival: inf},
		{App: "x", Workflow: cpuWorkflow(), Class: Interactive, Arrival: -inf},
		{App: "x", Workflow: cpuWorkflow(), Class: Guaranteed, Deadline: nan},
		{App: "x", Workflow: cpuWorkflow(), Class: Guaranteed, Deadline: inf},
	} {
		h, err := f.SubmitAt(req)
		if err == nil {
			res, _ := h.Wait()
			t.Fatalf("arrival %g deadline %g: admitted on %s, want an error", req.Arrival, req.Deadline, res.Site)
		}
		if errors.Is(err, fleet.ErrSaturated) {
			t.Fatalf("arrival %g deadline %g: %v wraps ErrSaturated, want a bad-request error",
				req.Arrival, req.Deadline, err)
		}
		// Checked after every request: a non-finite frontier left behind
		// would stall the next request's window rolls.
		if after := f.Stats(); !reflect.DeepEqual(before, after) {
			t.Fatalf("arrival %g deadline %g changed the federation:\nbefore %+v\nafter  %+v",
				req.Arrival, req.Deadline, before, after)
		}
		if traced != 0 || f.frontier != 0 || len(f.regions[0].fc.Apps()) != 0 || len(f.regions[0].held) != 0 {
			t.Fatalf("arrival %g deadline %g left state behind: %d events, frontier %g, forecaster apps %v, %d held",
				req.Arrival, req.Deadline, traced, f.frontier, f.regions[0].fc.Apps(), len(f.regions[0].held))
		}
	}
}
