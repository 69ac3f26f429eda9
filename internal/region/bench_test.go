package region

import (
	"fmt"
	"testing"

	"everest/internal/platform"
	"everest/internal/runtime"
)

// warmRouteFederation returns a warm federation shaped like E-region
// (sdk.DefaultRegionScenario: 3 regions of 3 sites of 2 nodes, 4 cache
// and 4 store slots, partial reconfiguration, prefetch on 1 s windows)
// and its submit: one SubmitAt and Wait of an interactive FPGA workflow,
// called warm times before it is returned.
// Twelve apps with one bitstream each arrive in bursts of four at the
// three gateways, so every op prices three candidate regions and the
// forecaster rolls a window every 20 ops. The twelve images fill the
// twelve store slots, so once warm an op seldom ships one.
func warmRouteFederation(tb testing.TB, warm int) (*Federation, func()) {
	const apps, gap = 12, 0.05
	cat := platform.NewRegistry()
	var names []string
	var wfs []*runtime.Workflow
	for a := range apps {
		id := fmt.Sprintf("bs-%d", a)
		if err := cat.Put(testBitstream(id)); err != nil {
			tb.Fatal(err)
		}
		names = append(names, id)
		wfs = append(wfs, fpgaWorkflow(id))
	}
	f, err := New(cat, Config{Regions: 3, SitesPerRegion: 3, NewCluster: testClusters(2),
		CacheSlots: 4, StoreSlots: 4, PartialReconfig: true,
		Prefetch: true, WindowSeconds: 1, WarmThreshold: 0.25, ForecastLag: 16})
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.Start(); err != nil {
		tb.Fatal(err)
	}
	i := 0
	submit := func() {
		// Bursts of the same app at one gateway, so the forecaster sees
		// demand worth prefetching.
		app := (i / 4) % apps
		h, err := f.SubmitAt(Request{Tenant: "t", Name: "wf", App: names[app], Workflow: wfs[app],
			Home: (i / 4) % 3, Class: Interactive, Arrival: gap * float64(i)})
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			tb.Fatal(err)
		}
		i++
	}
	for range warm {
		submit()
	}
	return f, submit
}

// BenchmarkRegionRoute measures the region tier per request on
// warmRouteFederation. Once warm an op seldom ships an image: this times
// routing and serving, not WAN staging.
func BenchmarkRegionRoute(b *testing.B) {
	f, submit := warmRouteFederation(b, 400)
	defer f.Shutdown()
	b.ReportAllocs()
	for b.Loop() {
		submit()
	}
}

// TestRegionSubmitAllocBudget pins a warm interactive SubmitAt on
// warmRouteFederation at the three objects the caller keeps: the Handle,
// the fleet ticket (with the schedule inside) and the schedule's
// assignments. The federation is warmed for 130 windows, past the
// forecasters' maxHist of 128, so the ten window rolls among the
// measured ops refit every app's KRR in buffers of their final size, and
// routing and prefetch reuse the federation's candidate and due buffers.
func TestRegionSubmitAllocBudget(t *testing.T) {
	f, submit := warmRouteFederation(t, 2600)
	defer f.Shutdown()
	const budget = 3
	if got := testing.AllocsPerRun(200, submit); got > budget {
		t.Errorf("warm interactive SubmitAt allocates %.1f per run, budget %d", got, budget)
	}
	if st := f.Stats(); st.Failed != 0 {
		t.Fatalf("fixture failed %d workflows", st.Failed)
	}
	for _, r := range f.regions {
		fc := r.fc
		if len(fc.series) == 0 || len(fc.series[0].krr.Series()) < fc.minFit {
			t.Fatalf("%s forecasts no app from a KRR: want every roll to refit", r.name)
		}
	}
}
