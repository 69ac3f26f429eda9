package sdk

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/variants"
)

func compileFleetKernel(t testing.TB) *variants.Compiled {
	t.Helper()
	c, err := DefaultFleetScenario().Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFleetScenarioDeterministicWithCacheChurn is the E-fleet acceptance
// test: the scenario serves mixed compiled and hand-declared workloads
// across 4 sites, its modelled numbers are exactly reproducible, and the
// bounded bitstream caches observably churn — hits, misses, and at least
// one eviction-triggered redeploy, all visible in both the stats and the
// trace.
func TestFleetScenarioDeterministicWithCacheChurn(t *testing.T) {
	sc := DefaultFleetScenario()
	c := compileFleetKernel(t)

	var kinds map[fleet.EventKind]int
	run := func() FleetResult {
		res, err := sc.RunWith(c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.P95 != b.P95 || a.Makespan != b.Makespan {
		t.Fatalf("scenario not deterministic: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Tenants, b.Tenants) {
		t.Fatalf("tenant latencies differ:\n%+v\n%+v", a.Tenants, b.Tenants)
	}

	if a.Completed != sc.Workflows || a.Rejected != 0 {
		t.Fatalf("completed/rejected = %d/%d, want %d/0", a.Completed, a.Rejected, sc.Workflows)
	}
	st := a.Stats.Fleet
	if st.CacheHits() == 0 || st.CacheMisses() == 0 {
		t.Fatalf("cache activity not observable: hits=%d misses=%d", st.CacheHits(), st.CacheMisses())
	}
	if st.Evictions() == 0 || st.Redeploys() == 0 {
		t.Fatalf("churn not observable: evictions=%d redeploys=%d", st.Evictions(), st.Redeploys())
	}
	for _, s := range st.Sites {
		if s.Served == 0 {
			t.Fatalf("site %s served nothing: the router is not sharding", s.Name)
		}
	}
	if len(a.Tenants) != sc.Tenants {
		t.Fatalf("tenant stats cover %d tenants, want %d", len(a.Tenants), sc.Tenants)
	}
	for tenant, tl := range a.Tenants {
		if tl.Completed == 0 || tl.P95 < tl.P50 || tl.Max < tl.P95 {
			t.Fatalf("tenant %s latency stats inconsistent: %+v", tenant, tl)
		}
	}

	// The same churn is visible in the trace stream, and tracing does not
	// perturb the modelled numbers.
	kinds = make(map[fleet.EventKind]int)
	traced := sc
	traced.Trace = func(ev fleet.Event) { kinds[ev.Kind]++ }
	res, err := traced.RunWith(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != a.Throughput {
		t.Fatalf("traced run diverged: %g vs %g", res.Throughput, a.Throughput)
	}
	for _, k := range []fleet.EventKind{fleet.EventRoute, fleet.EventCacheHit,
		fleet.EventCacheMiss, fleet.EventDeploy, fleet.EventEvict, fleet.EventRedeploy, fleet.EventDone} {
		if kinds[k] == 0 {
			t.Fatalf("trace records no %v events (got %v)", k, kinds)
		}
	}
}

// TestFleetScenarioClosedLoop drives the closed arrival mode: every
// tenant is a client that submits its next workflow the moment its
// previous one completes.
func TestFleetScenarioClosedLoop(t *testing.T) {
	sc := DefaultFleetScenario()
	sc.Closed = true
	sc.Tenants = 8
	sc.Workflows = 32
	c := compileFleetKernel(t)
	a, err := sc.RunWith(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.RunWith(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.P95 != b.P95 {
		t.Fatalf("closed-loop run not deterministic: %+v vs %+v", a, b)
	}
	if a.Completed != sc.Workflows {
		t.Fatalf("completed = %d, want %d", a.Completed, sc.Workflows)
	}
	// Closed loop keeps at most one workflow in flight per tenant, so p95
	// latency stays near service time — far below the open-mode overload.
	if a.P95 > sc.SLO {
		t.Fatalf("closed-loop p95 %g exceeds SLO %g", a.P95, sc.SLO)
	}
}

// TestFleetSaturationLadder checks the harness: throughput grows with
// offered load until the SLO breaks, and the best point is the highest
// SLO-meeting throughput.
func TestFleetSaturationLadder(t *testing.T) {
	sc := DefaultFleetScenario()
	sc.Workflows = 32
	c := compileFleetKernel(t)
	points, best, err := sc.Saturate(c, []float64{0.64, 0.04, 0.0025})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	if best.Throughput <= 0 {
		t.Fatal("no SLO-meeting rung found")
	}
	if points[0].Throughput >= points[1].Throughput {
		t.Fatalf("throughput should grow with offered load below saturation: %+v", points[:2])
	}
	for _, p := range points {
		if p.SLOMet && p.Throughput > best.Throughput {
			t.Fatalf("best %+v is not the max SLO-meeting point %+v", best, p)
		}
	}
	if _, _, err := sc.Saturate(c, []float64{-1}); err == nil {
		t.Fatal("negative gap accepted")
	}
}

// TestFleetServerOverloadRejects covers admission control at the server
// front: with a tight modelled queue bound and burst arrivals, saturated
// sites reject with fleet.ErrSaturated, and the workloads that were
// admitted still complete.
func TestFleetServerOverloadRejects(t *testing.T) {
	sc := DefaultFleetScenario()
	sc.Sites = 2
	sc.Workflows = 24
	sc.ArrivalGap = 0 // burst: everything arrives at t=0
	sc.MaxQueueSeconds = 0.3
	c := compileFleetKernel(t)
	a, err := sc.RunWith(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rejected == 0 {
		t.Fatal("burst past the queue bound should reject")
	}
	if a.Completed == 0 || a.Completed+a.Rejected != sc.Workflows {
		t.Fatalf("completed %d + rejected %d != %d", a.Completed, a.Rejected, sc.Workflows)
	}
	b, err := sc.RunWith(c)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rejected != a.Rejected || b.Completed != a.Completed {
		t.Fatalf("overload outcome not deterministic: %d/%d vs %d/%d",
			a.Completed, a.Rejected, b.Completed, b.Rejected)
	}

	// The raw error is the sentinel, also at the server-front API.
	srv, err := NewFleetServer(FleetConfig{Sites: 1, MaxQueueSeconds: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	tk, err := srv.SubmitAt("t0", "", SyntheticWorkflow(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SubmitAt("t1", "", SyntheticWorkflow(1), 0); !errors.Is(err, fleet.ErrSaturated) {
		t.Fatalf("want fleet.ErrSaturated, got %v", err)
	}
	srv.Shutdown()
}

// TestFleetRouterFallbackAllDevicesOffline covers the router's reaction
// to a site whose accelerators are all gone: FPGA-needing work routes to
// the healthy site first, work that does land on the dead site still
// completes in software, and nothing deploys to offline devices.
func TestFleetRouterFallbackAllDevicesOffline(t *testing.T) {
	dead := []runtime.EnvEvent{
		{Kind: runtime.EnvUnplug, Node: "node00", Device: 0, At: 0},
		{Kind: runtime.EnvUnplug, Node: "node01", Device: 0, At: 0},
		{Kind: runtime.EnvUnplug, Node: "cloudfpga0", Device: 0, At: 0},
	}
	srv, err := NewFleetServer(FleetConfig{
		Sites: 2, Adaptive: true,
		SiteEvents: [][]runtime.EnvEvent{dead, nil},
	})
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
	// First FPGA workflow skips the dead site even though tie-breaking
	// would otherwise favor it.
	tk, err := srv.SubmitAt("t0", "", AdaptiveWorkflow(0, bs.ID), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Site != "site01" {
		t.Fatalf("FPGA workflow routed to %s, want the healthy site01", res.Site)
	}
	// Pile enough arrivals at modelled t=0 that queue depth pushes some
	// onto the dead site; those must complete in software. Submissions
	// wait in turn so routing sees the deterministic modelled backlog.
	sawDeadSite := false
	for i := 1; i < 12; i++ {
		tk, err := srv.SubmitAt(fmt.Sprintf("t%d", i), "", AdaptiveWorkflow(i, bs.ID), 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("workflow %d: %v", i, err)
		}
		if res.Site == "site00" {
			sawDeadSite = true
			for _, a := range res.Sched.Assignments {
				if a.OnFPGA {
					t.Fatalf("task %s ran on FPGA on the dead site", a.Task)
				}
			}
			if res.Deploy != 0 {
				t.Fatalf("deploy stall %g on a site with no online device", res.Deploy)
			}
		}
	}
	st := srv.Shutdown()
	if !sawDeadSite {
		t.Fatalf("queue pressure never spilled onto the dead site: %+v", st.Fleet.Sites)
	}
	s0 := st.Fleet.Sites[0]
	if s0.FallbackDeploys == 0 {
		t.Fatalf("dead site should report fallback deploys, got %+v", s0)
	}
	if s0.Engine.OnlineDevices != 0 {
		t.Fatalf("dead site reports %d online devices", s0.Engine.OnlineDevices)
	}
}

// TestFleetServerValidation covers constructor errors.
func TestFleetServerValidation(t *testing.T) {
	if _, err := NewFleetServer(FleetConfig{Sites: 0}); err == nil {
		t.Fatal("zero sites accepted")
	}
	if _, err := NewFleetServer(FleetConfig{Sites: 1, Net: "bogus"}); err == nil {
		t.Fatal("bogus net accepted")
	}
	if _, err := NewFleetServer(FleetConfig{Sites: 1, RegistryNet: "bogus"}); err == nil {
		t.Fatal("bogus registry net accepted")
	}
	sc := DefaultFleetScenario()
	sc.Sites = 0
	if _, err := sc.Run(); err == nil {
		t.Fatal("bad scenario accepted")
	}
	good := DefaultFleetScenario()
	if _, err := good.RunWith(nil); err == nil {
		t.Fatal("nil compilation accepted")
	}
}

// TestPercentile pins the nearest-rank semantics the SLO gate relies on.
func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct {
		q    float64
		want float64
	}{{0, 1}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {0.95, 4}, {1, 4}}
	for _, c := range cases {
		if got := Percentile(xs, c.q); got != c.want {
			t.Fatalf("Percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %g, want 0", got)
	}
	if xs[0] != 4 {
		t.Fatal("Percentile must not mutate its input")
	}
}

// TestFleetServerAccessorsAndGaps covers the small surface the benchmark
// drives from outside the package.
func TestFleetServerAccessorsAndGaps(t *testing.T) {
	gaps := DefaultSaturationGaps()
	if len(gaps) < 5 {
		t.Fatalf("ladder too short: %v", gaps)
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] >= gaps[i-1] {
			t.Fatalf("ladder must descend (offered load must grow): %v", gaps)
		}
	}
	srv, err := NewFleetServer(FleetConfig{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Fleet() == nil || srv.Fleet().Sites() != 2 {
		t.Fatal("Fleet() should expose the federation tier")
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	st := srv.Shutdown()
	if len(st.Fleet.Sites) != 2 {
		t.Fatalf("stats cover %d sites, want 2", len(st.Fleet.Sites))
	}
}

// TestFleetClosedLoopRetriesRejections pins the closed-mode admission
// semantics: a rejected client backs off and retries the same workflow,
// so every workflow eventually completes even under a tight queue bound.
func TestFleetClosedLoopRetriesRejections(t *testing.T) {
	sc := DefaultFleetScenario()
	sc.Closed = true
	sc.Sites = 1
	sc.Tenants = 4
	sc.Workflows = 12
	sc.ArrivalGap = 0 // all clients start at t=0: guaranteed contention
	sc.MaxQueueSeconds = 0.05
	c := compileFleetKernel(t)
	res, err := sc.RunWith(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("tight queue bound with simultaneous clients should reject at least once")
	}
	if res.Completed != sc.Workflows {
		t.Fatalf("completed %d of %d: rejected closed-loop workflows must be retried, not dropped",
			res.Completed, sc.Workflows)
	}
}

// TestEngineStartGapPinned pins the second face of the two-clock gap
// (DESIGN §10) on E-fleet: the fleet bills a workflow's execution from
// start + deploy + fetch on its own clock, while the site engine, whose
// clock advances only by service time, starts the workflow's first task
// earlier in every one of the 64 workflows, by up to 2.1749 s. ROADMAP
// item 5 (one modelled clock) flips the count to 0; a change that widens
// the gap raises the maximum lag and fails here.
func TestEngineStartGapPinned(t *testing.T) {
	sc := DefaultFleetScenario()
	c := compileFleetKernel(t)
	srv, err := NewFleetServer(sc.FleetConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []platform.Bitstream{c.Design.Bitstream, ScenarioBitstream()} {
		if err := srv.Publish(bs); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	// The E-fleet open-loop pass (FleetScenario.run), one result at a time.
	early, maxLag := 0, 0.0
	var latencies []float64
	for i := 0; i < sc.Workflows; i++ {
		tk, err := srv.SubmitAt(fmt.Sprintf("tenant%02d", i%sc.Tenants), "", sc.workflow(i, c), float64(i)*sc.ArrivalGap)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		latencies = append(latencies, res.Latency)
		engineStart := math.Inf(1)
		for _, a := range res.Sched.Assignments {
			engineStart = min(engineStart, a.Start)
		}
		if lag := res.Arrival + res.Wait + res.Deploy + res.Fetch - engineStart; lag > 0 {
			early++
			maxLag = max(maxLag, lag)
		}
	}
	srv.Shutdown()
	ref, err := sc.RunWith(c)
	if err != nil {
		t.Fatal(err)
	}
	if p95 := Percentile(latencies, 0.95); p95 != ref.P95 {
		t.Fatalf("replayed E-fleet p95 %g, scenario p95 %g: the replay is not E-fleet", p95, ref.P95)
	}
	if early != 64 || math.Abs(maxLag-2.174894675) > 1e-9 {
		t.Errorf("engine start precedes the fleet's exec start in %d of %d workflows, by up to %.10g s; want 64, 2.174894675 s",
			early, sc.Workflows, maxLag)
	}
}
