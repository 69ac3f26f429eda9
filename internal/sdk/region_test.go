package sdk

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"everest/internal/apps"
	"everest/internal/dataset"
	"everest/internal/fleet"
	"everest/internal/region"
	rt "everest/internal/runtime"
)

func TestRegionServerValidates(t *testing.T) {
	if _, err := NewRegionServer(RegionConfig{}); err == nil {
		t.Fatal("zero regions accepted")
	}
	for _, cfg := range []RegionConfig{
		{Regions: 2, WAN: "no-such-fabric"},
		{Regions: 2, RegistryNet: "no-such-fabric"},
	} {
		if _, err := NewRegionServer(cfg); err == nil {
			t.Fatalf("bad fabric name accepted: %+v", cfg)
		}
	}
}

// TestRegionServerServes drives the server directly: publish into the
// catalog, serve across regions, and read the final accounting.
func TestRegionServerServes(t *testing.T) {
	srv, err := NewRegionServer(RegionConfig{Regions: 2, SitesPerRegion: 1, NodesPerSite: 2})
	if err != nil {
		t.Fatal(err)
	}
	bs := ScenarioBitstream()
	if err := srv.Publish(bs); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		h, err := srv.SubmitAt(region.Request{
			Tenant: "t", App: "app", Workflow: AdaptiveWorkflow(i, bs.ID),
			Home: i % 2, Arrival: float64(i), Class: region.Interactive,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Arrival != float64(i) {
			t.Fatalf("result %d arrival %.3f, want %d", i, res.Arrival, i)
		}
	}
	if st := srv.Shutdown(); st.Federation.Completed != 4 {
		t.Fatalf("completed %d, want 4", st.Federation.Completed)
	}
}

func TestRegionScenarioValidates(t *testing.T) {
	sc := DefaultRegionScenario()
	if _, err := sc.RunSuite(nil); err == nil {
		t.Fatal("nil suite accepted")
	}
	s, err := sc.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []func(*RegionScenario){
		func(sc *RegionScenario) { sc.Regions = 0 },
		func(sc *RegionScenario) { sc.Workflows = 0 },
		func(sc *RegionScenario) { sc.ArrivalGap = 0 },
		func(sc *RegionScenario) { sc.BlockSize = 0 },
	} {
		run := sc
		bad(&run)
		if _, err := run.RunSuite(s); err == nil {
			t.Fatalf("bad scenario accepted: %+v", run)
		}
	}
	run := sc
	run.WAN = "no-such-fabric"
	if _, err := run.RunSuite(s); err == nil {
		t.Fatal("bad WAN name accepted")
	}
	run = sc
	run.Apps = []string{"no-such-app"}
	if _, err := run.Run(); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestRegionScenarioPrefetchContrast mirrors the PR-9 bench gate: served
// over the same suite, the default E-region scenario with predictive
// prefetch must beat the prefetch-off arm on tail cold-start overhead by
// at least the gated 1.5x, with zero guaranteed-bound violations on
// either arm. Off the serving path, that is the whole point of the
// forecaster: the off arm pays wan1g refetches when the wave returns
// after batch churn, the on arm restages the store at window rolls.
func TestRegionScenarioPrefetchContrast(t *testing.T) {
	sc := DefaultRegionScenario()
	s, err := sc.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	on, off, err := sc.PrefetchWin(s)
	if err != nil {
		t.Fatal(err)
	}
	for pf, res := range map[bool]RegionResult{true: on, false: off} {
		if res.Completed != sc.Workflows {
			t.Fatalf("prefetch=%v completed %d/%d", pf, res.Completed, sc.Workflows)
		}
		if res.BoundViolations != 0 {
			t.Fatalf("prefetch=%v: %d guaranteed-bound violations", pf, res.BoundViolations)
		}
		if res.GuaranteedAdmitted == 0 {
			t.Fatalf("prefetch=%v: no guaranteed admissions", pf)
		}
	}
	prefetchSeconds := 0.0
	for _, r := range on.Stats.Regions {
		prefetchSeconds += r.PrefetchSeconds
	}
	if on.PrefetchFetches == 0 || prefetchSeconds <= 0 {
		t.Fatalf("prefetch on: no prefetch fetches recorded (%+v)", on.Stats)
	}
	if off.PrefetchFetches != 0 {
		t.Fatalf("prefetch off: %d prefetch fetches recorded", off.PrefetchFetches)
	}
	if on.TailColdStartP99 <= 0 || off.TailColdStartP99 <= 0 {
		t.Fatalf("degenerate tail overhead: on=%.4f off=%.4f", on.TailColdStartP99, off.TailColdStartP99)
	}
	if ratio := off.TailColdStartP99 / on.TailColdStartP99; ratio < 1.5 {
		t.Fatalf("prefetch speedup %.2fx < 1.5x (on=%.4fs off=%.4fs)",
			ratio, on.TailColdStartP99, off.TailColdStartP99)
	}
	if on.TailCold >= off.TailCold {
		t.Fatalf("tail cold serves: on=%d off=%d, want prefetch to reduce them", on.TailCold, off.TailCold)
	}
}

// TestRegionScenarioPartition exercises the WAN-fault path end to end: a
// region partitioned for a stretch must keep serving locally (degrading
// artifact fetches), and the run must still complete every workflow.
func TestRegionScenarioPartition(t *testing.T) {
	sc := DefaultRegionScenario()
	sc.Workflows = 60
	sc.Partitions = []region.Partition{{Region: 0, From: 5, Until: 20}}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.Workflows {
		t.Fatalf("completed %d/%d under partition", res.Completed, sc.Workflows)
	}
	skips := 0
	for _, r := range res.Stats.Regions {
		skips += r.PartitionSkips
	}
	if skips == 0 {
		t.Fatal("partition never forced a local degrade")
	}
}

// renderRegionTraces runs the scenario with all three trace tiers —
// region events, per-region fleet events, per-site engine events —
// rendered into one byte stream.
func renderRegionTraces(t *testing.T, sc RegionScenario, s *apps.Suite) []byte {
	t.Helper()
	var buf bytes.Buffer
	sc.Trace = func(ev region.Event) {
		fmt.Fprintf(&buf, "R %d %s %s %s %s %s %.9f %s\n",
			ev.Kind, ev.Region, ev.Tenant, ev.Workflow, ev.App, ev.Bitstream, ev.Time, ev.Detail)
	}
	sc.FleetTrace = func(regionName string, ev fleet.Event) {
		fmt.Fprintf(&buf, "F %s %d %s %s %s %s %.9f %s\n",
			regionName, ev.Kind, ev.Site, ev.Tenant, ev.Workflow, ev.Bitstream, ev.Time, ev.Detail)
	}
	sc.EngineTrace = func(regionName, site string, ev rt.Event) {
		fmt.Fprintf(&buf, "E %s %s %d %s %s %s %s %.9f %s\n",
			regionName, site, ev.Kind, ev.Workflow, ev.Tenant, ev.Task, ev.Node, ev.Time, ev.Detail)
	}
	res, err := sc.RunSuite(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("scenario completed no workflows; trace proves nothing")
	}
	if buf.Len() == 0 {
		t.Fatal("no trace events captured")
	}
	return buf.Bytes()
}

// TestRegionScenarioDeterministicTrace extends the PR-6 determinism
// contract one tier up: the merged region+fleet+engine trace of the
// E-region scenario — router decisions, WAN fetches, prefetch stages,
// holds and preemptions included — must be byte-identical across
// scheduler widths. CI runs this under -race.
func TestRegionScenarioDeterministicTrace(t *testing.T) {
	sc := DefaultRegionScenario()
	sc.Workflows = 60 // enough for holds, prefetch and wave returns; keeps -race runtime sane
	s, err := sc.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	ref := atGOMAXPROCS(1, func() []byte { return renderRegionTraces(t, sc, s) })
	for _, kind := range []string{"R ", "F ", "E "} {
		if !strings.Contains(string(ref), "\n"+kind) && !strings.HasPrefix(string(ref), kind) {
			t.Fatalf("trace stream has no %q events", kind)
		}
	}
	got := atGOMAXPROCS(8, func() []byte { return renderRegionTraces(t, sc, s) })
	if !bytes.Equal(ref, got) {
		t.Fatalf("region trace diverged across GOMAXPROCS (%d vs %d bytes):\n%s",
			len(ref), len(got), firstDiff(ref, got))
	}
}

// TestRegionPRKernelsRunOnNoFPGA pins the PR-region gap as exact counts
// of E-region's FPGA-requesting tasks that ran on an FPGA, read from each
// result's schedule and the workflow specs. With partial reconfiguration
// on, kernels are deployed into PR regions that the engine never prices
// (Node.KernelTime matches only the whole-device image), so none runs on
// an FPGA; with it off, whole-device deploys serve some. ROADMAP item 2
// fixes the pricing and flips the PR-on pin to at least the PR-off count.
func TestRegionPRKernelsRunOnNoFPGA(t *testing.T) {
	s, err := DefaultRegionScenario().BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		partial        bool
		onFPGA, wanted int
	}{{true, 0, 400}, {false, 124, 400}} {
		sc := DefaultRegionScenario()
		sc.PartialReconfig = tc.partial
		onFPGA, wanted := 0, 0
		if _, err := sc.runSuite(s, func(w *rt.Workflow, res region.Result) {
			for _, a := range res.Sched.Assignments {
				if spec, _ := w.Get(a.Task); spec.NeedsFPGA {
					wanted++
					if a.OnFPGA {
						onFPGA++
					}
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if onFPGA != tc.onFPGA || wanted != tc.wanted {
			t.Errorf("PartialReconfig %v: %d of %d FPGA-requesting tasks ran on an FPGA, want %d of %d",
				tc.partial, onFPGA, wanted, tc.onFPGA, tc.wanted)
		}
	}
}

// TestRegionReadsNoWrittenPartition pins the premise that lets the region
// tier price every dataset read at 0: E-region's workflows write
// partitions, but none reads a partition any workflow writes. Their
// external reads are outside source data that costs the same in every
// region, so a region-tier dataset store would fetch, prefetch and evict
// nothing. A region scenario that reads what another workflow wrote
// breaks this premise, and needs a region data plane to price the read.
func TestRegionReadsNoWrittenPartition(t *testing.T) {
	s, err := DefaultRegionScenario().BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	read, written := map[dataset.ID]bool{}, map[dataset.ID]bool{}
	if _, err := DefaultRegionScenario().runSuite(s, func(w *rt.Workflow, _ region.Result) {
		for _, p := range w.Reads() {
			read[p.ID] = true
		}
		for _, o := range w.Outputs() {
			written[o.ID] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	for id := range read {
		if written[id] {
			t.Errorf("E-region reads partition %v, which a workflow writes", id.Value())
		}
	}
	if len(written) == 0 {
		t.Error("E-region writes no partition: the premise checks nothing")
	}
}

// TestServersRefuseAfterShutdown: the sdk fronts pass the tiers'
// lifecycle through, so every mutating call on a FleetServer or a
// RegionServer after Shutdown refuses with runtime.ErrShutDown.
func TestServersRefuseAfterShutdown(t *testing.T) {
	fs, err := NewFleetServer(FleetConfig{Sites: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Start(); err != nil {
		t.Fatal(err)
	}
	fs.Shutdown()
	rs, err := NewRegionServer(RegionConfig{Regions: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs.Shutdown() // never started
	for name, call := range map[string]func() error{
		"FleetServer.Publish": func() error { return fs.Publish(ScenarioBitstream()) },
		"FleetServer.Start":   fs.Start,
		"FleetServer.SubmitAt": func() error {
			_, err := fs.SubmitAt("t", "", SyntheticWorkflow(0), 0)
			return err
		},
		"FleetServer.SubmitGuaranteedAt": func() error {
			_, err := fs.SubmitGuaranteedAt("t", "", SyntheticWorkflow(0), 0, 10)
			return err
		},
		"RegionServer.Publish": func() error { return rs.Publish(ScenarioBitstream()) },
		"RegionServer.Start":   rs.Start,
		"RegionServer.SubmitAt": func() error {
			_, err := rs.SubmitAt(region.Request{Workflow: SyntheticWorkflow(0)})
			return err
		},
	} {
		if err := call(); !errors.Is(err, rt.ErrShutDown) {
			t.Errorf("%s after Shutdown = %v, want %v", name, err, rt.ErrShutDown)
		}
	}
}
