package sdk

import (
	"math"
	goruntime "runtime"
	"testing"

	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/virt"
)

// runOnce compiles the scenario's kernel and serves its workflows once;
// adaptive selects the engine mode.
func runOnce(sc AdaptiveScenario, adaptive bool) (ScenarioResult, error) {
	c, err := sc.Compile()
	if err != nil {
		return ScenarioResult{}, err
	}
	return sc.serve(c, adaptive)
}

func TestAdaptiveScenarioValidation(t *testing.T) {
	bad := []AdaptiveScenario{
		{Workflows: 0, Nodes: 4, FPGANodes: 1},
		{Workflows: 1, Nodes: 1, FPGANodes: 1},
		{Workflows: 1, Nodes: 4, FPGANodes: 0},
		{Workflows: 1, Nodes: 4, FPGANodes: 5},
		{Workflows: 1, Nodes: 4, FPGANodes: 1, Slowdown: 0.5},
	}
	for _, sc := range bad {
		if _, err := runOnce(sc, true); err == nil {
			t.Errorf("scenario %+v must fail validation", sc)
		}
	}
}

// TestAdaptiveBeatsStaticUnderFaults is the E-adapt acceptance claim: the
// same workloads, cluster, and mid-run faults (accelerator unplug + node
// slowdown), served adaptively, finish at least 1.3x sooner than under
// static placement.
func TestAdaptiveBeatsStaticUnderFaults(t *testing.T) {
	sc := DefaultAdaptiveScenario()
	static, adaptive, err := sc.AdaptWin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if static.Stats.Completed != sc.Workflows || adaptive.Stats.Completed != sc.Workflows {
		t.Fatalf("completions: static %d adaptive %d, want %d",
			static.Stats.Completed, adaptive.Stats.Completed, sc.Workflows)
	}
	speedup := static.Makespan / adaptive.Makespan
	if speedup < 1.3 {
		t.Fatalf("adaptive speedup %.2fx (static %.3gs, adaptive %.3gs), want >= 1.3x",
			speedup, static.Makespan, adaptive.Makespan)
	}
	// The adaptive run reports per-tenant variant counts; the static run
	// must not (it never consults the tuner) but records its fallbacks.
	for name, ts := range adaptive.Stats.Tenants {
		if len(ts.Variants) == 0 {
			t.Errorf("tenant %s has no variant stats", name)
		}
	}
	staticFallbacks := 0
	for _, ts := range static.Stats.Tenants {
		if len(ts.Variants) != 0 {
			t.Errorf("static run reported variants: %+v", ts.Variants)
		}
		staticFallbacks += ts.Fallbacks
	}
	if staticFallbacks == 0 {
		t.Error("static run under an unplug must pay FPGA fallbacks")
	}
}

// offlineDevices counts the accelerators of c the engine sees detached:
// Stats applies the control calls made so far, then counts the attached
// ones (no node of these tests fails).
func offlineDevices(c *platform.Cluster, e *runtime.Engine) int {
	total := 0
	for _, n := range c.Nodes {
		total += len(n.Devices)
	}
	return total - e.Stats().OnlineDevices
}

// TestAttachHypervisor drives the full virt→engine path: unplugging the
// last VF detaches the device from the engine's world, replugging restores
// it.
func TestAttachHypervisor(t *testing.T) {
	s := New(DefaultCluster(2))
	bs := ScenarioBitstream()
	if err := s.Registry.Put(bs); err != nil {
		t.Fatal(err)
	}
	node := s.Cluster.Nodes[0]
	if _, err := s.Deploy(bs.ID, node.Name); err != nil {
		t.Fatal(err)
	}
	hyp, err := virt.NewHypervisor(node, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.DefineVM("guest", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}

	eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT, Adaptive: true})
	if err := AttachHypervisor(eng, hyp, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	// Engine start resets attachment state; the VF is still plugged, so the
	// device starts online.
	if offlineDevices(s.Cluster, eng) != 0 {
		t.Fatal("device must start online")
	}
	eng.Shutdown()

	// Pre-Start desync case: the last VF is unplugged before Start, so the
	// ownership reset would mark the device attached — Start must re-derive
	// the detached state from the hypervisor's VF table.
	if _, err := hyp.UnplugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	eng = runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT, Adaptive: true})
	if err := AttachHypervisor(eng, hyp, nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	if offlineDevices(s.Cluster, eng) != 1 {
		t.Fatal("device unplugged before Start must come up detached")
	}
	// Restore the VF so the live unplug/replug sequence below starts from
	// an attached device.
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if offlineDevices(s.Cluster, eng) != 0 {
		t.Fatal("replug must reattach the device")
	}
	if _, err := hyp.UnplugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if offlineDevices(s.Cluster, eng) != 1 {
		t.Error("unplugging the last VF must detach the device")
	}
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if offlineDevices(s.Cluster, eng) != 0 {
		t.Error("replugging the first VF must reattach the device")
	}
	eng.Shutdown()
}

// TestShutDownEngineLeavesHotplugToLiveEngine: a hypervisor keeps every
// engine ever attached to it subscribed, so a shut-down engine still sees
// the unplug. It must not touch the node: if it flipped the shared device
// first, the live engine would find the unplug redundant and never react.
func TestShutDownEngineLeavesHotplugToLiveEngine(t *testing.T) {
	s := New(DefaultCluster(2))
	bs := ScenarioBitstream()
	if err := s.Registry.Put(bs); err != nil {
		t.Fatal(err)
	}
	node := s.Cluster.Nodes[0]
	if _, err := s.Deploy(bs.ID, node.Name); err != nil {
		t.Fatal(err)
	}
	hyp, err := virt.NewHypervisor(node, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.DefineVM("guest", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	old := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT})
	if err := AttachHypervisor(old, hyp, nil); err != nil {
		t.Fatal(err)
	}
	if err := old.Start(); err != nil {
		t.Fatal(err)
	}
	old.Shutdown()

	unplugs := 0
	live := runtime.NewEngine(s.Cluster, runtime.EngineConfig{
		Policy: runtime.PolicyHEFT, Adaptive: true,
		Trace: func(ev runtime.Event) {
			if ev.Kind == runtime.EventDeviceUnplug {
				unplugs++
			}
		},
	})
	if err := AttachHypervisor(live, hyp, nil); err != nil {
		t.Fatal(err)
	}
	if err := live.Start(); err != nil {
		t.Fatal(err)
	}
	defer live.Shutdown()
	if _, err := hyp.UnplugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	fut, err := live.Submit(AdaptiveWorkflow(0, bs.ID), runtime.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if unplugs != 1 {
		t.Fatalf("live engine traced %d device unplugs, want 1", unplugs)
	}
	if node.DeviceOnline(0) {
		t.Fatal("the live engine must detach the unplugged device")
	}
}

// detachedHypervisor stages the scenario bitstream on the first two compute
// nodes and returns a hypervisor over the first whose only guest holds no
// VF, so that node's accelerator is unreachable.
func detachedHypervisor(t *testing.T, s *SDK) (*virt.Hypervisor, *platform.Node, string) {
	t.Helper()
	bs := ScenarioBitstream()
	if err := s.Registry.Put(bs); err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Cluster.Nodes[:2] {
		if _, err := s.Deploy(bs.ID, n.Name); err != nil {
			t.Fatal(err)
		}
	}
	node := s.Cluster.Nodes[0]
	hyp, err := virt.NewHypervisor(node, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.DefineVM("guest", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.UnplugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	return hyp, node, bs.ID
}

// TestAttachHypervisorAfterStart: attachment is derived when the
// hypervisor attaches, so a late attach applies the current VF state at
// once instead of waiting for the next hot-plug event.
func TestAttachHypervisorAfterStart(t *testing.T) {
	s := New(DefaultCluster(2))
	hyp, _, _ := detachedHypervisor(t, s)
	eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT, Adaptive: true})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	if offlineDevices(s.Cluster, eng) != 0 {
		t.Fatal("no hypervisor attached yet: the device must be online")
	}
	if err := AttachHypervisor(eng, hyp, nil); err != nil {
		t.Fatal(err)
	}
	if offlineDevices(s.Cluster, eng) != 1 {
		t.Fatal("a hypervisor whose last VF is unplugged must detach the device on attach")
	}
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if offlineDevices(s.Cluster, eng) != 0 {
		t.Fatal("replugging the first VF must reattach the device")
	}
}

// TestAttachHypervisorRefusesUnservedNode: a hypervisor whose node the
// engine does not serve (a misspelled name), or whose node exposes more
// devices than the engine's node of that name, is refused at attach, and
// its hot-plug events then reach nothing. A non-finite clock reading
// would lose a hot-plug event, so the plugging call panics instead.
func TestAttachHypervisorRefusesUnservedNode(t *testing.T) {
	s := New(DefaultCluster(2))
	eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT, Adaptive: true})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown()
	name := s.Cluster.Nodes[0].Name
	for _, node := range []*platform.Node{
		platform.NewNode(name+"x", platform.XeonModel(), platform.AlveoU55C()),
		platform.NewNode(name, platform.XeonModel(), platform.AlveoU55C(), platform.AlveoU55C()),
	} {
		hyp, err := virt.NewHypervisor(node, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hyp.DefineVM("guest", 4); err != nil {
			t.Fatal(err)
		}
		if err := AttachHypervisor(eng, hyp, nil); err == nil {
			t.Errorf("attach of a hypervisor over %s with %d devices succeeded", node.Name, len(node.Devices))
		}
		if offlineDevices(s.Cluster, eng) != 0 {
			t.Errorf("refused attach of %s detached a device", node.Name)
		}
	}

	hyp, err := virt.NewHypervisor(s.Cluster.Nodes[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.DefineVM("guest", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		t.Fatal(err)
	}
	if err := AttachHypervisor(eng, hyp, func() float64 { return math.NaN() }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("an unplug stamped at a NaN clock reading must panic, not vanish")
		}
	}()
	_, _ = hyp.UnplugVF("guest", 0)
}

// TestPreStartBatchHonoursAttachedHypervisor: the pre-Start batch is
// placed after attachment is derived, so it is one deterministic batch
// that never offloads to the detached accelerator.
func TestPreStartBatchHonoursAttachedHypervisor(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	var spans []float64
	for _, procs := range []int{1, 2, 1, 2} {
		goruntime.GOMAXPROCS(procs)
		s := New(DefaultCluster(3))
		hyp, node, bsID := detachedHypervisor(t, s)
		eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT, Adaptive: true})
		if err := AttachHypervisor(eng, hyp, nil); err != nil {
			t.Fatal(err)
		}
		futs := make([]*runtime.Future, 8)
		for i := range futs {
			fut, err := eng.Submit(AdaptiveWorkflow(i, bsID), runtime.SubmitOptions{Tenant: "batch"})
			if err != nil {
				t.Fatal(err)
			}
			futs[i] = fut
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		offloads := 0
		for i, fut := range futs {
			sched, err := fut.Wait()
			if err != nil {
				t.Fatalf("workflow %d: %v", i, err)
			}
			for _, a := range sched.Assignments {
				if !a.OnFPGA {
					continue
				}
				if a.Node == node.Name {
					t.Fatalf("workflow %d: %s offloaded to the detached device on %s", i, a.Task, a.Node)
				}
				offloads++
			}
		}
		if offloads == 0 {
			t.Fatal("the attached accelerator must still take offloads")
		}
		eng.Shutdown()
		spans = append(spans, TallyOf(futs).Makespan)
	}
	for i, m := range spans {
		if m != spans[0] {
			t.Fatalf("batch makespans %v differ (run %d)", spans, i)
		}
	}
}
