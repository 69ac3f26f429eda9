package sdk

import (
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"testing"

	"everest/internal/stream"
)

// pinDigest is an FNV-64a digest over values, each formatted %.9g: nine
// significant digits pin a modelled number without tying the digest to
// the last bit of float rounding.
func pinDigest(values []float64) string {
	h := fnv.New64a()
	for _, v := range values {
		fmt.Fprintf(h, "%.9g,", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func boolPin(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// enginePins flattens both arms (static, then adaptive) of an engine-tier
// scenario: the makespan, the tally counters, every tenant's adaptation
// activity and every node's health snapshot.
func enginePins(t *testing.T, sc AdaptiveScenario) []float64 {
	t.Helper()
	var out []float64
	for _, adaptive := range []bool{false, true} {
		res, err := runOnce(sc, adaptive)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		out = append(out, res.Makespan, float64(st.Submitted), float64(st.Completed), float64(st.Failed), st.Makespan)
		for _, name := range slices.Sorted(maps.Keys(st.Tenants)) {
			ts := st.Tenants[name]
			out = append(out, float64(ts.Completed), float64(ts.Failed), ts.LastFinish,
				float64(ts.Reschedules), float64(ts.Fallbacks))
			for _, v := range slices.Sorted(maps.Keys(ts.Variants)) {
				out = append(out, float64(ts.Variants[v]))
			}
		}
		for _, h := range res.Health {
			out = append(out, float64(h.Tasks), h.EWMALatency, h.SlowdownEst, float64(h.DevicesOnline), float64(h.DevicesTotal))
		}
	}
	return out
}

// fleetPins flattens a fleet-tier result: the scenario-level numbers, the
// per-application latencies, and every site's counters.
func fleetPins(res FleetResult) []float64 {
	out := []float64{
		float64(res.Completed), float64(res.Rejected), res.Makespan, res.Throughput,
		res.P50, res.P95, res.Max, boolPin(res.SLOMet),
		float64(res.GuaranteedAdmitted), float64(res.GuaranteedRefused), res.GuaranteedAdmitRate,
		float64(res.BoundViolations), res.BoundTightness,
	}
	for _, name := range slices.Sorted(maps.Keys(res.Apps)) {
		a := res.Apps[name]
		out = append(out, float64(a.Completed), a.P50, a.P95, a.Max)
	}
	st := res.Stats.Fleet
	out = append(out, float64(st.Submitted), float64(st.Completed), float64(st.Failed), float64(st.Rejected), st.Makespan)
	for _, s := range st.Sites {
		out = append(out, float64(s.Served), float64(s.Failed), float64(s.CacheHits), float64(s.CacheMisses),
			float64(s.Evictions), float64(s.Redeploys), float64(s.FallbackDeploys), s.DeploySeconds,
			float64(s.DatasetHits), float64(s.DatasetMisses), float64(s.DatasetFetches), float64(s.DatasetFetchedBytes),
			float64(s.DatasetPublished), float64(s.DatasetPublishedBytes), float64(s.DatasetEvictions),
			float64(s.BoundViolations), s.BusyUntil)
	}
	return out
}

// kmeansPins flattens one E-data arm.
func kmeansPins(res KMeansResult) []float64 {
	return append([]float64{
		float64(res.Workflows), res.Makespan, res.Throughput, float64(res.ShippedBytes),
		res.BytesPerWorkflow, res.FetchStall, float64(res.DatasetHits), float64(res.DatasetMisses),
	}, fleetPins(FleetResult{Stats: res.Stats})...)
}

// regionPins flattens one E-region arm: every RegionResult number, every
// region's counters, and every site's counters within it.
func regionPins(res RegionResult) []float64 {
	out := []float64{
		float64(res.Completed), float64(res.Rejected), res.Makespan, res.Throughput,
		res.P50, res.P95, res.Max, res.BatchP95, res.TailP99, res.TailColdStartP99, float64(res.TailCold),
		float64(res.GuaranteedAdmitted), float64(res.GuaranteedRefused), res.GuaranteedAdmitRate,
		float64(res.BoundViolations), res.BoundTightness,
		float64(res.ColdServes), float64(res.PrefetchFetches), float64(res.Warms),
		float64(res.Handoffs), float64(res.Preemptions),
	}
	st := res.Stats
	out = append(out, float64(st.Submitted), float64(st.Completed), float64(st.Failed), float64(st.Rejected),
		float64(st.ColdServes), float64(st.Preemptions), float64(st.Handoffs), float64(st.WANFetches),
		float64(st.PrefetchFetches), float64(st.Warms),
		float64(st.BoundViolations), st.Makespan)
	for _, r := range st.Regions {
		out = append(out, float64(r.Served), float64(r.Failed),
			float64(r.Guaranteed), float64(r.Batch),
			float64(r.Handoffs), float64(r.ColdServes), float64(r.Preemptions),
			float64(r.WANFetches), r.WANFetchSeconds, float64(r.PrefetchFetches), r.PrefetchSeconds,
			float64(r.Warms), float64(r.StoreEvictions),
			// Sites never scale (0 ups, 0 downs, every site active); the
			// constants keep the recorded digests.
			0, 0, float64(len(r.Fleet.Sites)))
		f := r.Fleet
		out = append(out, float64(f.Submitted), float64(f.Completed), float64(f.Failed), float64(f.Rejected), f.Makespan)
		for _, s := range f.Sites {
			out = append(out, float64(s.Served), float64(s.Failed), float64(s.CacheHits), float64(s.CacheMisses),
				float64(s.Evictions), float64(s.Redeploys), float64(s.FallbackDeploys), s.DeploySeconds,
				1, // every site serves; kept for the digest
				float64(s.BoundViolations), s.BusyUntil)
		}
	}
	return out
}

// streamPins flattens one E-stream run: the totals, every pipeline and
// stage, and every device's residency churn.
func streamPins(st stream.Stats) []float64 {
	out := []float64{
		float64(st.Events), float64(st.Done), float64(st.Shed), float64(st.Windows),
		st.Makespan, st.Throughput, st.P50, st.P99, st.Mean, st.Max, float64(st.Swaps), st.SwapSeconds,
	}
	for _, p := range st.Pipelines {
		out = append(out, float64(p.Events), float64(p.Done), float64(p.Shed), float64(p.Windows),
			p.P50, p.P99, p.Mean, p.Max)
		for _, s := range p.Stages {
			out = append(out, float64(s.Windows), s.BusySeconds, float64(s.ShedEvents))
		}
	}
	for _, d := range st.Devices {
		out = append(out, float64(d.Regions), float64(d.Kernels), float64(d.Swaps), d.SwapSeconds)
	}
	return out
}

// TestScenarioResultsPinned pins the modelled results of the default
// scenarios: a refactor of the scenario drivers or the serving tiers that
// leaves the model alone must leave every digest alone. A changed digest
// means a modelled number moved; say why before updating it.
func TestScenarioResultsPinned(t *testing.T) {
	want := map[string]string{
		"E-adapt":   "e70749a02045beb4",
		"E-compile": "7cad0ecf9ac89ac4",
		"E-fleet":   "347c284deb3dd926",
		"E-apps":    "66a4471a142882fc",
		"E-wcet":    "84b4f037b1ed13c6",
		"E-data":    "9098da3fae46c9be",
		"E-region":  "365cbbfa46d8ee9d",
		"E-stream":  "44435f5922cff14d",
	}
	run := func(name string, pins func(t *testing.T) []float64) {
		t.Run(name, func(t *testing.T) {
			if got := pinDigest(pins(t)); got != want[name] {
				t.Errorf("%s digest %s, want %s", name, got, want[name])
			}
		})
	}
	run("E-adapt", func(t *testing.T) []float64 { return enginePins(t, DefaultAdaptiveScenario()) })
	run("E-compile", func(t *testing.T) []float64 { return enginePins(t, DefaultCompiledScenario()) })
	fleet := func(sc FleetScenario) func(t *testing.T) []float64 {
		return func(t *testing.T) []float64 {
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			return fleetPins(res)
		}
	}
	run("E-fleet", fleet(DefaultFleetScenario()))
	suite := DefaultSuiteScenario()
	suite.Workflows = 24
	run("E-apps", fleet(suite))
	run("E-wcet", fleet(DefaultGuaranteedScenario()))
	run("E-data", func(t *testing.T) []float64 {
		local, blind, err := DefaultKMeansScenario().LocalityWin()
		if err != nil {
			t.Fatal(err)
		}
		return append(kmeansPins(local), kmeansPins(blind)...)
	})
	run("E-region", func(t *testing.T) []float64 {
		sc := DefaultRegionScenario()
		s, err := sc.BuildSuite()
		if err != nil {
			t.Fatal(err)
		}
		on, off, err := sc.PrefetchWin(s)
		if err != nil {
			t.Fatal(err)
		}
		return append(regionPins(on), regionPins(off)...)
	})
	run("E-stream", func(t *testing.T) []float64 {
		srv, err := NewStreamServer(DefaultStreamScenario())
		if err != nil {
			t.Fatal(err)
		}
		st, err := srv.Run()
		if err != nil {
			t.Fatal(err)
		}
		return streamPins(st)
	})
}
