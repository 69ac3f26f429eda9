package fleet

import (
	"testing"

	"everest/internal/dataset"
	"everest/internal/platform"
)

// TestRouteAllocFree pins the router's allocation budget: pricing every
// site for one workflow — cache residency probes, cold-deploy estimates,
// affinity — must not allocate in steady state, so the whole Submit-side
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
	for _, tc := range []struct {
		what  string
		needs []string
		reads []dataset.Ref
	}{
		{"route (software-only)", nil, nil},
		{"route (cold bitstreams)", []string{"bs0", "bs1"}, nil},
		{"route (dataset locality)", []string{"bs0"}, refs},
	} {
		if got := testing.AllocsPerRun(200, func() {
			if _, err := f.route("tenant00", 1, true, tc.needs, tc.reads, 0.5); err != nil {
				t.Fatal(err)
			}
		}); got > 0 {
			t.Errorf("%s allocates %.1f per run, budget 0", tc.what, got)
		}
	}
}
