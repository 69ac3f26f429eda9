package runtime

import (
	"errors"
	"math"
	"testing"

	"everest/internal/autotuner"
	"everest/internal/platform"
)

// fpgaChain returns a chain of n offloadable tasks submitted for
// single-core software execution (Cores: 1), so the as-submitted fallback
// is painful (~15s) while cpu16 (~1s) and the fpga kernel (~ms) are fast —
// the variant spread the tuner navigates.
func fpgaChain(t *testing.T, n int, bitstream string) *Workflow {
	t.Helper()
	w := NewWorkflow()
	for i := 0; i < n; i++ {
		spec := TaskSpec{
			Name: taskName(i), Flops: 5e10, InputBytes: 1 << 22, OutputBytes: 1 << 20,
			Cores: 1, NeedsFPGA: true, BitstreamID: bitstream,
		}
		if i > 0 {
			spec.Deps = []string{taskName(i - 1)}
		}
		if err := w.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// programmedCluster builds a cluster of n nodes with the test bitstream
// programmed on node 0.
func programmedCluster(t *testing.T, n int) (*platform.Cluster, platform.Bitstream) {
	t.Helper()
	cluster := testCluster(n)
	bs := fpgaBitstream()
	if _, err := cluster.Nodes[0].Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	return cluster, bs
}

func TestAdaptiveSelectsFPGAVariant(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	fut, err := e.Submit(fpgaChain(t, 4, bs.ID), SubmitOptions{Name: "fpga-chain"})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != 4 {
		t.Fatalf("got %d assignments, want 4", len(sched.Assignments))
	}
	for _, a := range sched.Assignments {
		if !a.OnFPGA {
			t.Errorf("task %s ran as %v, want FPGA (healthy cluster)", a.Task, a.Node)
		}
	}
	if got := sched.VariantCounts()[VariantFPGA.String()]; got != 4 {
		t.Errorf("fpga variant count = %d, want 4 (%+v)", got, sched.VariantCounts())
	}
	if sched.Adapt.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", sched.Adapt.Fallbacks)
	}
}

// doneAt serves w alone on c under cfg and returns the end of task
// taskName(i): the modelled time of the chain's (i+1)-th completion. A
// fault scripted at that time reaches every later task of the chain and
// none before it.
func doneAt(t *testing.T, c *platform.Cluster, cfg EngineConfig, w *Workflow, i int) float64 {
	t.Helper()
	sched, err := ServeAlone(c, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return assignmentsByTask(sched)[taskName(i)].End
}

// serveScripted serves w alone on c under cfg with events scripted.
func serveScripted(t *testing.T, c *platform.Cluster, cfg EngineConfig, w *Workflow, events ...EnvEvent) *Schedule {
	t.Helper()
	cfg.Events = events
	sched, err := ServeAlone(c, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// TestAdaptiveReactsToUnplug unplugs the only accelerator when the first
// task completes: the rest of the chain must move to software, never
// paying the single-core fallback.
func TestAdaptiveReactsToUnplug(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	cfg := EngineConfig{Policy: PolicyHEFT, Adaptive: true}
	w := fpgaChain(t, 5, bs.ID)
	at := doneAt(t, cluster, cfg, w, 0)
	sched := serveScripted(t, cluster, cfg, w, EnvEvent{Kind: EnvUnplug, Node: cluster.Nodes[0].Name, At: at})
	byTask := assignmentsByTask(sched)
	if !byTask[taskName(0)].OnFPGA {
		t.Error("first task must run on the FPGA before the unplug")
	}
	for i := 1; i < 5; i++ {
		if byTask[taskName(i)].OnFPGA {
			t.Errorf("task %d ran on FPGA after the unplug", i)
		}
	}
	// The switch must go to the parallel software variant, not the
	// single-core fallback the static engine would pay.
	if got := sched.VariantCounts()[VariantCPU16.String()]; got != 4 {
		t.Errorf("cpu16 count = %d, want 4 (%+v)", got, sched.VariantCounts())
	}
	if sched.Adapt.Fallbacks != 0 {
		t.Errorf("adaptive run paid %d FPGA fallbacks, want 0", sched.Adapt.Fallbacks)
	}
}

// TestUnplugOfUnprogrammedDeviceIsCapacityNeutral: detaching a device
// that carries no bitstream must not move the chain off the real
// accelerator.
func TestUnplugOfUnprogrammedDeviceIsCapacityNeutral(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	cfg := EngineConfig{Policy: PolicyHEFT, Adaptive: true}
	w := fpgaChain(t, 4, bs.ID)
	at := doneAt(t, cluster, cfg, w, 0)
	// Node 1's device has no bitstream: zero FPGA capacity lost.
	sched := serveScripted(t, cluster, cfg, w, EnvEvent{Kind: EnvUnplug, Node: cluster.Nodes[1].Name, At: at})
	for _, a := range sched.Assignments {
		if !a.OnFPGA {
			t.Errorf("task %s left the FPGA after a capacity-neutral unplug", a.Task)
		}
	}
}

// TestStaticPaysUnplugFallback is the contrast case: the static engine
// keeps believing the design-time model after the unplug and sends FPGA
// work into the single-core fallback.
func TestStaticPaysUnplugFallback(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	cfg := EngineConfig{Policy: PolicyHEFT}
	w := fpgaChain(t, 4, bs.ID)
	at := doneAt(t, cluster, cfg, w, 0)
	sched := serveScripted(t, cluster, cfg, w, EnvEvent{Kind: EnvUnplug, Node: cluster.Nodes[0].Name, At: at})
	if sched.Adapt.Fallbacks == 0 {
		t.Error("static engine must record FPGA fallbacks after the unplug")
	}
	if len(sched.VariantCounts()) != 0 {
		t.Errorf("static engine must not record variants: %+v", sched.VariantCounts())
	}
}

// TestAdaptivePlugRestoresFPGA unplugs the device at the first completion
// and replugs it at the third: the fpga variant must come back.
func TestAdaptivePlugRestoresFPGA(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	cfg := EngineConfig{Policy: PolicyHEFT, Adaptive: true}
	w := fpgaChain(t, 6, bs.ID)
	node := cluster.Nodes[0].Name
	unplug := EnvEvent{Kind: EnvUnplug, Node: node, At: doneAt(t, cluster, cfg, w, 0)}
	cfg.Events = []EnvEvent{unplug}
	plugAt := doneAt(t, cluster, cfg, w, 2)
	sched := serveScripted(t, cluster, cfg, w, unplug, EnvEvent{Kind: EnvPlug, Node: node, At: plugAt})
	byTask := assignmentsByTask(sched)
	if byTask[taskName(2)].OnFPGA {
		t.Error("mid-chain task must run in software while unplugged")
	}
	if !byTask[taskName(5)].OnFPGA {
		t.Error("final task must return to the FPGA after the replug")
	}
}

// TestAdaptiveAvoidsSlowNode loads one node 8x: the monitor learns the
// ratio from the first completion and the rest of the chain migrates,
// while the static engine keeps trusting the nominal model.
func TestAdaptiveAvoidsSlowNode(t *testing.T) {
	run := func(adaptive bool) *Schedule {
		cluster := testCluster(2)
		e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: adaptive})
		if err := e.Apply(EnvEvent{Kind: EnvSlowdown, Node: cluster.Nodes[0].Name, Factor: 8}); err != nil {
			t.Fatal(err)
		}
		w := NewWorkflow()
		for i := 0; i < 6; i++ {
			spec := TaskSpec{Name: taskName(i), Flops: 3e10, InputBytes: 1 << 20, OutputBytes: 1 << 20}
			if i > 0 {
				spec.Deps = []string{taskName(i - 1)}
			}
			if err := w.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		fut, err := e.Submit(w, SubmitOptions{Name: "slow-chain"})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := fut.Wait()
		e.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		return sched
	}
	static := run(false)
	adaptive := run(true)
	if adaptive.Makespan >= static.Makespan {
		t.Fatalf("adaptive %.3gs must beat static %.3gs on a loaded node",
			adaptive.Makespan, static.Makespan)
	}
	if speedup := static.Makespan / adaptive.Makespan; speedup < 1.3 {
		t.Errorf("speedup %.2fx, want >= 1.3x", speedup)
	}
}

func TestEngineControlErrors(t *testing.T) {
	cluster := testCluster(1)
	e := startEngine(t, cluster, EngineConfig{})
	n := cluster.Nodes[0]
	for _, ev := range []EnvEvent{
		{Kind: EnvUnplug, Node: "ghost"},
		{Kind: EnvUnplug, Node: n.Name, Device: 9},
		{Kind: EnvPlug, Node: "ghost"},
		{Kind: EnvSlowdown, Node: "ghost", Factor: 2},
	} {
		if err := e.Apply(ev); err == nil {
			t.Errorf("Apply(%+v) must error", ev)
		}
	}
	e.Shutdown()
	// Apply after shutdown returns at once with ErrShutDown and leaves the
	// node as it was.
	for i := 0; i < 300; i++ {
		if err := e.Apply(EnvEvent{Kind: EnvSlowdown, Node: n.Name, Factor: 2}); !errors.Is(err, ErrShutDown) {
			t.Fatalf("slowdown after shutdown = %v, want %v", err, ErrShutDown)
		}
	}
	for _, kind := range []EnvEventKind{EnvUnplug, EnvPlug} {
		if err := e.Apply(EnvEvent{Kind: kind, Node: n.Name}); !errors.Is(err, ErrShutDown) {
			t.Errorf("kind %d after shutdown = %v, want %v", kind, err, ErrShutDown)
		}
	}
	if n.SlowdownAt(math.Inf(1)) != 1 || !n.DeviceOnline(0) {
		t.Error("Apply after shutdown must not touch the node")
	}
}

// TestRedundantPlugUnplugAreNoOps: an Apply that does not change the
// device's attachment state writes and traces nothing, between serves as
// at any other time.
func TestRedundantPlugUnplugAreNoOps(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	if _, err := cluster.Nodes[1].Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	n0, n1 := cluster.Nodes[0].Name, cluster.Nodes[1].Name
	var envEvents []Event
	e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true, Trace: func(ev Event) {
		if ev.Kind == EventDeviceUnplug || ev.Kind == EventDevicePlug {
			envEvents = append(envEvents, ev)
		}
	}})
	defer e.Shutdown()
	at := 0.0
	for _, batch := range [][]EnvEvent{
		{{Kind: EnvUnplug, Node: n0}, {Kind: EnvUnplug, Node: n0}}, // one real unplug, one redundant
		{{Kind: EnvPlug, Node: n1}},                                // a plug of an attached device
		{{Kind: EnvPlug, Node: n0}},                                // a real replug
	} {
		for _, ev := range batch {
			ev.At = at
			if err := e.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		fut, err := e.Submit(fpgaChain(t, 2, bs.ID), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		at = sched.Makespan
	}
	if len(envEvents) != 2 ||
		envEvents[0].Kind != EventDeviceUnplug || envEvents[0].Node != n0 ||
		envEvents[1].Kind != EventDevicePlug || envEvents[1].Node != n0 {
		t.Fatalf("environment events %+v, want one unplug and one plug of %s", envEvents, n0)
	}
}

// TestMonitorLearnsThroughEngine checks the learning path end to end: a
// slowed node's estimate converges from real completions.
func TestMonitorLearnsThroughEngine(t *testing.T) {
	cluster := testCluster(2)
	e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	slow := cluster.Nodes[0].Name
	if err := e.Apply(EnvEvent{Kind: EnvSlowdown, Node: slow, Factor: 6}); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(chainWorkflow(t, 6), SubmitOptions{Name: "learn"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	// At least one task landed on the slow node before the monitor learned;
	// its estimate must have moved well above nominal.
	est := 0.0
	for _, h := range e.Health() {
		if h.Node == slow {
			est = h.SlowdownEst
		}
	}
	if est < 2 {
		t.Errorf("slowdown estimate for %s = %g, want >= 2", slow, est)
	}
}

// seededTask returns a one-task workflow, a CPU task of 1 GFLOP on 4
// cores, whose tuner is seeded with the named variants only.
func seededTask(t *testing.T, names ...string) *Workflow {
	t.Helper()
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "t", Flops: 1e9, Cores: 4}); err != nil {
		t.Fatal(err)
	}
	var seeds []autotuner.Variant
	for _, name := range names {
		seeds = append(seeds, autotuner.Variant{Name: name, ExpectedMs: 1})
	}
	w.SetVariants(seeds)
	return w
}

// TestAdaptiveServesTaskWithNoUsableVariant: a workflow seeded only with
// fpga has no variant its software task can run as, so the adaptive
// engine serves it as submitted, exactly as the static engine does,
// instead of refusing it for want of a node that can run fpga.
func TestAdaptiveServesTaskWithNoUsableVariant(t *testing.T) {
	static, err := ServeAlone(testCluster(2), EngineConfig{Policy: PolicyHEFT}, seededTask(t, "fpga"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := ServeAlone(testCluster(2), EngineConfig{Policy: PolicyHEFT, Adaptive: true}, seededTask(t, "fpga"))
	if err != nil {
		t.Fatalf("adaptive engine refused the fpga-seeded software task: %v", err)
	}
	if sched.Makespan != static.Makespan {
		t.Errorf("adaptive makespan %g, want the static engine's %g", sched.Makespan, static.Makespan)
	}
	if a := sched.Assignments[0]; a.Variant != VariantAsSubmitted || a.OnFPGA {
		t.Errorf("task ran as %q (on FPGA %v), want as submitted in software", a.Variant, a.OnFPGA)
	}
}

// TestAdaptiveServesWhenNoVariantPrices: an FPGA task seeded only with
// fpga, on a cluster whose one programmed device is unplugged at 0, has
// no variant the adaptive engine can price on any live node. The engine
// prices and bills it as submitted, through the software fallback,
// exactly as the static engine does, instead of refusing it.
func TestAdaptiveServesWhenNoVariantPrices(t *testing.T) {
	serve := func(adaptive bool) (*Schedule, error) {
		cluster, bs := programmedCluster(t, 2)
		w := fpgaChain(t, 1, bs.ID)
		w.SetVariants([]autotuner.Variant{{Name: VariantFPGA.String(), ExpectedMs: 1}})
		return ServeAlone(cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: adaptive,
			Events: []EnvEvent{{Kind: EnvUnplug, Node: cluster.Nodes[0].Name, At: 0}}}, w)
	}
	static, err := serve(false)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := serve(true)
	if err != nil {
		t.Fatalf("adaptive engine refused the task the static engine serves: %v", err)
	}
	if sched.Makespan != static.Makespan {
		t.Errorf("adaptive makespan %g, want the static engine's %g", sched.Makespan, static.Makespan)
	}
	if a := sched.Assignments[0]; a.Variant != VariantAsSubmitted || a.OnFPGA || sched.Adapt.Fallbacks != static.Adapt.Fallbacks {
		t.Errorf("task ran as %q (on FPGA %v, %d fallbacks), want as submitted in software like the static %+v",
			a.Variant, a.OnFPGA, sched.Adapt.Fallbacks, static.Adapt)
	}
}

// TestAdaptivePricesUnknownVariantAsBilled: a workflow seeded only with a
// name outside the engine's variants (gpu) runs as submitted, and its
// placement estimate is what execution bills: the engine's frontier after
// serving it ends where the task did, not at a cpu1 estimate.
func TestAdaptivePricesUnknownVariantAsBilled(t *testing.T) {
	e := startEngine(t, testCluster(2), EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	defer e.Shutdown()
	var sched Schedule
	if err := e.Serve(seededTask(t, "gpu"), SubmitOptions{}, &sched); err != nil {
		t.Fatal(err)
	}
	a := sched.Assignments[0]
	if got := e.Backlog(); got != a.End {
		t.Errorf("placement priced the task to end at %g, execution billed %g", got, a.End)
	}
	if a.Variant != VariantAsSubmitted || len(sched.VariantCounts()) != 0 {
		t.Errorf("task recorded as %q (counts %v), want as submitted", a.Variant, sched.VariantCounts())
	}
}
