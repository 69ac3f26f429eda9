package sdk

import (
	gort "runtime"
	"testing"

	"everest/internal/apps"
)

// suiteCache shares one compiled application suite across the package's
// suite tests (compilation is deterministic, so sharing is safe).
var suiteCache *apps.Suite

func builtSuite(t *testing.T) *apps.Suite {
	t.Helper()
	if suiteCache == nil {
		s, err := DefaultSuiteScenario().BuildSuite()
		if err != nil {
			t.Fatal(err)
		}
		suiteCache = s
	}
	return suiteCache
}

// smallSuiteScenario trims the E-apps configuration for unit-test speed.
func smallSuiteScenario() FleetScenario {
	sc := DefaultSuiteScenario()
	sc.Sites = 2
	sc.Tenants = 6
	sc.Workflows = 12
	return sc
}

// TestSuiteServesAllApplications: every registered application completes
// through the fleet tier and reports its own latency distribution.
func TestSuiteServesAllApplications(t *testing.T) {
	sc := smallSuiteScenario()
	res, err := sc.RunSuite(builtSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != sc.Workflows {
		t.Fatalf("completed %d of %d", res.Completed, sc.Workflows)
	}
	if len(res.Apps) != len(apps.Names()) {
		t.Fatalf("per-app stats for %d apps, want %d (%+v)", len(res.Apps), len(apps.Names()), res.Apps)
	}
	total := 0
	for name, tl := range res.Apps {
		if tl.Completed == 0 || tl.P95 <= 0 || tl.P95 < tl.P50 {
			t.Errorf("app %s: degenerate latency stats %+v", name, tl)
		}
		total += tl.Completed
	}
	if total != res.Completed {
		t.Fatalf("per-app completions sum to %d, want %d", total, res.Completed)
	}
	// The suite path must flow through the registry DAGs: fleet deploys
	// must have staged more than one distinct bitstream per site set.
	if res.Stats.Fleet.CacheMisses() == 0 {
		t.Fatal("suite serving never deployed a bitstream")
	}
}

// TestSuiteDeterministicAcrossGOMAXPROCS is the registry's exact-
// determinism acceptance: the mixed suite served at GOMAXPROCS=1 and 8
// must produce identical modelled numbers, down to the last bit.
func TestSuiteDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := smallSuiteScenario()
	s := builtSuite(t)
	run := func(procs int) FleetResult {
		old := gort.GOMAXPROCS(procs)
		defer gort.GOMAXPROCS(old)
		res, err := sc.RunSuite(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(1)
	b := run(8)
	if a.Makespan != b.Makespan || a.Throughput != b.Throughput ||
		a.P50 != b.P50 || a.P95 != b.P95 || a.Max != b.Max ||
		a.Completed != b.Completed || a.Rejected != b.Rejected {
		t.Fatalf("suite run differs across GOMAXPROCS:\n1: %+v\n8: %+v", a, b)
	}
	for name := range a.Apps {
		if a.Apps[name] != b.Apps[name] {
			t.Fatalf("app %s stats differ across GOMAXPROCS: %+v vs %+v",
				name, a.Apps[name], b.Apps[name])
		}
	}
	// Closed-loop mode must be deterministic too.
	closed := sc
	closed.Closed = true
	c1 := func() FleetResult {
		old := gort.GOMAXPROCS(1)
		defer gort.GOMAXPROCS(old)
		res, err := closed.RunSuite(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	c8 := func() FleetResult {
		old := gort.GOMAXPROCS(8)
		defer gort.GOMAXPROCS(old)
		res, err := closed.RunSuite(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	if c1.Makespan != c8.Makespan || c1.P95 != c8.P95 {
		t.Fatalf("closed suite run differs across GOMAXPROCS:\n1: %+v\n8: %+v", c1, c8)
	}
}

// TestSuiteSaturationLadder drives the mixed suite through the rate
// ladder: per-app percentiles ride along with every rung and the best
// rung meets the SLO.
func TestSuiteSaturationLadder(t *testing.T) {
	sc := smallSuiteScenario()
	points, best, err := sc.SaturateSuite(builtSuite(t), []float64{0.64, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d, want 2", len(points))
	}
	if best.Throughput <= 0 {
		t.Fatalf("no SLO-meeting rung: %+v", points)
	}
	for i, p := range points {
		if len(p.Apps) != len(apps.Names()) {
			t.Fatalf("rung %d: per-app stats %+v", i, p.Apps)
		}
	}
	if _, _, err := sc.SaturateSuite(nil, nil); err == nil {
		t.Fatal("nil suite accepted")
	}
}

// TestRunDispatchesOnApps: FleetScenario.Run serves the suite when Apps
// is set and validates unknown names.
func TestRunDispatchesOnApps(t *testing.T) {
	sc := smallSuiteScenario()
	sc.Apps = []string{"nope"}
	if _, err := sc.Run(); err == nil {
		t.Fatal("unknown app name accepted")
	}
	if _, err := sc.RunSuite(nil); err == nil {
		t.Fatal("nil suite accepted")
	}
}
