package fleet

import (
	"fmt"
	"math"
	"testing"

	"everest/internal/apps"
	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// pairWorkflow is a workflow of two FPGA tasks, the first requesting
// bitstream a and the second b, so its needs are a then b.
func pairWorkflow(a, b string) *runtime.Workflow {
	w := runtime.NewWorkflow()
	for _, t := range []runtime.TaskSpec{
		{Name: "first", Flops: 2e9, OutputBytes: 1 << 16, NeedsFPGA: true, BitstreamID: a},
		{Name: "second", Deps: []string{"first"}, Flops: 2e9, InputBytes: 1 << 16, NeedsFPGA: true, BitstreamID: b},
	} {
		if err := w.Submit(t); err != nil {
			panic(err)
		}
	}
	return w
}

// selfEvictFleet is one site of three single-Alveo nodes holding at most
// two bitstreams. B is warmed, then X, so B is the LRU entry, and the
// first request needs A before B: deploying A evicts B, which the router
// priced live. The requests cycle through four kernel pairs, arriving
// after the site has drained.
func selfEvictFleet(trace func(Event)) (*Fleet, func(int) Request, error) {
	reg := platform.NewRegistry()
	for _, id := range []string{"A", "B", "X"} {
		if err := reg.Put(testBitstream(id)); err != nil {
			return nil, nil, err
		}
	}
	f, err := New(reg, Config{Sites: 1, NewCluster: testCluster(3), CacheSlots: 2, Trace: trace})
	if err != nil {
		return nil, nil, err
	}
	if err := f.Start(); err != nil {
		return nil, nil, err
	}
	for _, id := range []string{"B", "X"} {
		if _, _, err := f.Warm(needPart(id), 0); err != nil {
			return nil, nil, err
		}
	}
	pairs := [][2]string{{"A", "B"}, {"A", "B"}, {"X", "A"}, {"B", "A"}}
	return f, func(i int) Request {
		p := pairs[i%len(pairs)]
		return Request{Tenant: "t", Workflow: pairWorkflow(p[0], p[1]), Arrival: float64(i)}
	}, nil
}

// appsFleet is the E-apps configuration (sdk.DefaultSuiteScenario), built
// here because the sdk imports this package: the three EVEREST
// applications interleaved across 24 tenants over 4 sites of two Alveo
// U55C nodes and one cloudFPGA node, two resident bitstreams per site,
// the tcp10g registry fabric, adaptive engines, site 0's node00
// unplugged at 0.5 s, and one arrival every 0.05 s. Requests carry the
// names the fleet gives unnamed work, as the scenario's do.
func appsFleet(trace func(Event)) (*Fleet, func(int) Request, error) {
	suite, err := apps.BuildSuite(apps.DefaultOptions(), apps.Names()...)
	if err != nil {
		return nil, nil, err
	}
	reg := platform.NewRegistry()
	for _, bs := range suite.Bitstreams() {
		if err := reg.Put(bs); err != nil {
			return nil, nil, err
		}
	}
	tcp, err := netsim.StackByName("tcp10g")
	if err != nil {
		return nil, nil, err
	}
	f, err := New(reg, Config{
		Sites: 4, CacheSlots: 2, Adaptive: true, RegistryNet: &tcp, Trace: trace,
		NewCluster: func(int) *platform.Cluster {
			return platform.NewCluster(
				platform.NewNode("node00", platform.XeonModel(), platform.AlveoU55C()),
				platform.NewNode("node01", platform.XeonModel(), platform.AlveoU55C()),
				platform.NewNode("cloudfpga0", platform.EPYCModel(), platform.CloudFPGA()))
		},
		SiteEvents: [][]runtime.EnvEvent{{{Kind: runtime.EnvUnplug, Node: "node00", At: 0.5}}},
	})
	if err != nil {
		return nil, nil, err
	}
	if err := f.Start(); err != nil {
		return nil, nil, err
	}
	return f, func(i int) Request {
		_, w := suite.Workflow(i)
		tenant := fmt.Sprintf("tenant%02d", i%24)
		return Request{Tenant: tenant, Name: WorkflowName(tenant, i+1), Workflow: w, Arrival: 0.05 * float64(i)}
	}, nil
}

// TestDeployGapsPinned pins the two known deploy gaps between the
// router's price and serving's bill (DESIGN §10) as exact counts of
// workflows billed a deploy other than the one priced. ROADMAP item 6
// (one deploy plan per workflow and site) closes both and flips these
// pins to 0; a change that widens either gap fails here.
//
//   - Self-eviction: a multi-bitstream workflow's deploy evicts its own
//     resident need, which the router priced at 0, and serving bills it
//     again.
//   - Slot choice: estimateDeploy prices the first slot that fits,
//     vacancy aside, while deployOne takes the first vacant one, on
//     another device with another image size.
func TestDeployGapsPinned(t *testing.T) {
	for _, tc := range []struct {
		name      string
		build     func(trace func(Event)) (*Fleet, func(int) Request, error)
		n         int
		deployGap int
	}{
		{"self-eviction", selfEvictFleet, 8, 3},
		{"E-apps", appsFleet, 48, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if c := priceBill(t, tc.build, tc.n); c.deployGap != tc.deployGap {
				t.Errorf("%d of %d workflows were billed a deploy other than the one priced, want %d",
					c.deployGap, tc.n, tc.deployGap)
			}
		})
	}
}

// shiftFleet serves the two-clock probe with every arrival and fault
// moved by shift: one site of two single-Alveo nodes holding two
// bitstreams, twelve workflows 0.15 s apart cycling the FPGA workflow
// over three bitstreams with every fourth a CPU workflow, node00's device
// unplugged at 0.3 s and plugged back at 0.9 s, and node01 slowed 3× at
// 0.5 s. It returns each workflow's latency.
func shiftFleet(t *testing.T, shift float64) []float64 {
	t.Helper()
	ids := []string{"bs-a", "bs-b", "bs-c"}
	reg := platform.NewRegistry()
	for _, id := range ids {
		if err := reg.Put(testBitstream(id)); err != nil {
			t.Fatal(err)
		}
	}
	f := newTestFleet(t, reg, Config{Sites: 1, CacheSlots: 2, SiteEvents: [][]runtime.EnvEvent{{
		{Kind: runtime.EnvUnplug, Node: "node00", Device: 0, At: 0.3 + shift},
		{Kind: runtime.EnvSlowdown, Node: "node01", Factor: 3, At: 0.5 + shift},
		{Kind: runtime.EnvPlug, Node: "node00", Device: 0, At: 0.9 + shift},
	}}})
	defer f.Shutdown()
	var lat []float64
	for i := 0; i < 12; i++ {
		w := fpgaWorkflow(ids[i%3])
		if i%4 == 3 {
			w = cpuWorkflow()
		}
		tk, err := f.Submit(Request{Tenant: "t", Workflow: w, Arrival: shift + 0.15*float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, res.Latency)
	}
	return lat
}

// TestTimeShiftGapPinned pins the two-clock gap (DESIGN §10) as a
// metamorphic count: shifting every arrival and fault by +10 s must not
// change a latency, yet it changes 5 of 12. A site engine's clock starts
// at 0 and advances only by service time, so it meets the scripted
// faults at other moments than the fleet's clock does. ROADMAP item 5
// (one modelled clock) flips this pin to 0; a change that widens the gap
// fails here.
func TestTimeShiftGapPinned(t *testing.T) {
	base, shifted := shiftFleet(t, 0), shiftFleet(t, 10)
	changed := 0
	for i := range base {
		if math.Abs(shifted[i]-base[i]) > 1e-9 {
			changed++
			t.Logf("workflow %d: latency %.6g s, %.6g s shifted", i, base[i], shifted[i])
		}
	}
	if changed != 5 {
		t.Errorf("a +10 s shift changed %d of %d latencies, want 5", changed, len(base))
	}
}
