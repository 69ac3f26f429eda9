package region

import (
	"fmt"
	"testing"

	"everest/internal/platform"
	"everest/internal/runtime"
)

// BenchmarkRegionRoute measures the region tier per request: one
// SubmitAt and Wait of an interactive FPGA workflow on a warm federation
// shaped like E-region (sdk.DefaultRegionScenario: 3 regions of 3 sites
// of 2 nodes, 4 cache and 4 store slots, partial reconfiguration,
// prefetch on 1 s windows). Twelve apps with one bitstream each arrive in
// bursts of four at the three gateways, so every op prices three
// candidate regions and the forecaster rolls a window every 20 ops. The
// twelve images fill the twelve store slots, so once warm an op seldom
// ships one: this times routing and serving, not WAN staging.
func BenchmarkRegionRoute(b *testing.B) {
	const apps, gap = 12, 0.05
	cat := platform.NewRegistry()
	var names []string
	var wfs []*runtime.Workflow
	for a := range apps {
		id := fmt.Sprintf("bs-%d", a)
		if err := cat.Put(testBitstream(id)); err != nil {
			b.Fatal(err)
		}
		names = append(names, id)
		wfs = append(wfs, fpgaWorkflow(id))
	}
	f, err := New(cat, Config{Regions: 3, SitesPerRegion: 3, NewCluster: testClusters(2),
		CacheSlots: 4, StoreSlots: 4, PartialReconfig: true,
		Prefetch: true, WindowSeconds: 1, WarmThreshold: 0.25, ForecastLag: 16})
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Start(); err != nil {
		b.Fatal(err)
	}
	defer f.Shutdown()
	i := 0
	submit := func() {
		// Bursts of the same app at one gateway, so the forecaster sees
		// demand worth prefetching.
		app := (i / 4) % apps
		h, err := f.SubmitAt(Request{Tenant: "t", Name: "wf", App: names[app], Workflow: wfs[app],
			Home: (i / 4) % 3, Class: Interactive, Arrival: gap * float64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Wait(); err != nil {
			b.Fatal(err)
		}
		i++
	}
	for range 400 {
		submit()
	}
	b.ReportAllocs()
	for b.Loop() {
		submit()
	}
}
