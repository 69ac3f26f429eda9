package sdk

import (
	"fmt"
	gort "runtime"
	"sort"
	"strings"
	"testing"

	"everest/internal/fleet"
)

// smallKMeans keeps the scenario tests fast: 4 partitions over 2 sites,
// 2 rounds, default kernel shapes.
func smallKMeans() KMeansScenario {
	sc := DefaultKMeansScenario()
	sc.Sites = 2
	sc.Rounds = 2
	sc.Config.Partitions = 4
	return sc
}

func TestKMeansScenarioArms(t *testing.T) {
	sc := smallKMeans()
	local, blind, err := sc.LocalityWin()
	if err != nil {
		t.Fatal(err)
	}
	// Every round serves one map per partition plus a reduce, both arms.
	want := sc.Rounds * (sc.Config.Partitions + 1)
	if local.Workflows != want || blind.Workflows != want {
		t.Fatalf("workflows local=%d blind=%d, want %d", local.Workflows, blind.Workflows, want)
	}
	// The contrast the benchmark gates: locality pricing ships only the
	// tiny per-cluster partials, the blind arm ships point partitions.
	if local.ShippedBytes == 0 || blind.ShippedBytes == 0 {
		t.Fatalf("shipped bytes local=%d blind=%d, want both arms nonzero", local.ShippedBytes, blind.ShippedBytes)
	}
	win := blind.BytesPerWorkflow / local.BytesPerWorkflow
	if win < 1.5 {
		t.Fatalf("byte win %.2fx below the 1.5x acceptance floor (local %d B, blind %d B)",
			win, local.ShippedBytes, blind.ShippedBytes)
	}
	if local.DatasetHits == 0 {
		t.Fatal("locality arm never hit a site dataset store")
	}
	if local.Makespan <= 0 || local.Throughput <= 0 {
		t.Fatalf("degenerate timeline: makespan=%g throughput=%g", local.Makespan, local.Throughput)
	}
	// Data staged on serve paths must be accounted stall, and vice versa.
	if (local.ShippedBytes > 0) != (local.FetchStall > 0) {
		t.Fatalf("locality arm: %d B shipped but %g s stall", local.ShippedBytes, local.FetchStall)
	}
}

// TestKMeansScenarioDeterminism renders both arms' full fleet traces at
// GOMAXPROCS 1 and 8 under whatever -race setting the run has. Sites are
// independent serving goroutines, so the emission interleaving across
// sites is host-schedule noise; the canonical (sorted) event set and
// every aggregate must still be byte-identical — each event carries its
// modelled time, so a single drifting stall would show up.
func TestKMeansScenarioDeterminism(t *testing.T) {
	render := func(blind bool) string {
		sc := smallKMeans()
		sc.PlacementBlind = blind
		var lines []string
		sc.Trace = func(e fleet.Event) {
			lines = append(lines, fmt.Sprintf("%d %s %s %s %s %.9f %s\n",
				e.Kind, e.Site, e.Tenant, e.Workflow, e.Bitstream, e.Time, e.Detail))
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(lines)
		return strings.Join(lines, "") + fmt.Sprintf("wf=%d shipped=%d makespan=%.9f hits=%d misses=%d\n",
			res.Workflows, res.ShippedBytes, res.Makespan, res.DatasetHits, res.DatasetMisses)
	}
	for _, blind := range []bool{false, true} {
		prev := gort.GOMAXPROCS(1)
		one := render(blind)
		gort.GOMAXPROCS(8)
		eight := render(blind)
		gort.GOMAXPROCS(prev)
		if one != eight {
			t.Errorf("blind=%v: trace differs between GOMAXPROCS 1 and 8", blind)
		}
	}
}
