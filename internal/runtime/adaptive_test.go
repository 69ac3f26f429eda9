package runtime

import (
	"testing"

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
	if _, err := cluster.Nodes[0].Program(0, bs); err != nil {
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
	if got := sched.VariantCounts()[VariantFPGA]; got != 4 {
		t.Errorf("fpga variant count = %d, want 4 (%+v)", got, sched.VariantCounts())
	}
	if sched.Adapt.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0", sched.Adapt.Fallbacks)
	}
}

// TestAdaptiveReactsToUnplug unplugs the only accelerator after the first
// task completes: the tuner must mask the fpga variant and move the rest of
// the chain to software, never paying the single-core fallback.
func TestAdaptiveReactsToUnplug(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	e := NewEngine(cluster, platform.NewRegistry(), EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	done := 0
	e.cfg.Trace = func(ev Event) {
		if ev.Kind == EventTaskDone {
			done++
			if done == 1 {
				if err := e.UnplugDevice(cluster.Nodes[0].Name, 0, ev.Time); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(fpgaChain(t, 5, bs.ID), SubmitOptions{Name: "unplugged"})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	byTask := sched.ByTask()
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
	if got := sched.VariantCounts()[VariantCPU16]; got != 4 {
		t.Errorf("cpu16 count = %d, want 4 (%+v)", got, sched.VariantCounts())
	}
	if sched.Adapt.Fallbacks != 0 {
		t.Errorf("adaptive run paid %d FPGA fallbacks, want 0", sched.Adapt.Fallbacks)
	}
}

// TestUnplugOfUnprogrammedDeviceIsCapacityNeutral: detaching a device
// that carries no bitstream must not degrade the fpga variant — the chain
// stays on the real accelerator.
func TestUnplugOfUnprogrammedDeviceIsCapacityNeutral(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	e := NewEngine(cluster, platform.NewRegistry(), EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	done := 0
	e.cfg.Trace = func(ev Event) {
		if ev.Kind == EventTaskDone {
			done++
			if done == 1 {
				// Node 1's device has no bitstream: zero FPGA capacity lost.
				if err := e.UnplugDevice(cluster.Nodes[1].Name, 0, ev.Time); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(fpgaChain(t, 4, bs.ID), SubmitOptions{Name: "neutral"})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
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
	e := NewEngine(cluster, platform.NewRegistry(), EngineConfig{Policy: PolicyHEFT})
	done := 0
	e.cfg.Trace = func(ev Event) {
		if ev.Kind == EventTaskDone {
			done++
			if done == 1 {
				if err := e.UnplugDevice(cluster.Nodes[0].Name, 0, ev.Time); err != nil {
					t.Error(err)
				}
			}
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(fpgaChain(t, 4, bs.ID), SubmitOptions{Name: "static"})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Adapt.Fallbacks == 0 {
		t.Error("static engine must record FPGA fallbacks after the unplug")
	}
	if len(sched.VariantCounts()) != 0 {
		t.Errorf("static engine must not record variants: %+v", sched.VariantCounts())
	}
}

// TestAdaptivePlugRestoresFPGA replugs the device mid-chain: the fpga
// variant must come back.
func TestAdaptivePlugRestoresFPGA(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	e := NewEngine(cluster, platform.NewRegistry(), EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	done := 0
	e.cfg.Trace = func(ev Event) {
		if ev.Kind != EventTaskDone {
			return
		}
		done++
		var err error
		switch done {
		case 1:
			err = e.UnplugDevice(cluster.Nodes[0].Name, 0, ev.Time)
		case 3:
			err = e.PlugDevice(cluster.Nodes[0].Name, 0, ev.Time)
		}
		if err != nil {
			t.Error(err)
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(fpgaChain(t, 6, bs.ID), SubmitOptions{Name: "roundtrip"})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	byTask := sched.ByTask()
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
		if err := e.SetNodeSlowdown(cluster.Nodes[0].Name, 8, 0); err != nil {
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
	if err := e.UnplugDevice("ghost", 0, 0); err == nil {
		t.Error("unknown node must error")
	}
	if err := e.UnplugDevice(cluster.Nodes[0].Name, 9, 0); err == nil {
		t.Error("unknown device must error")
	}
	if err := e.PlugDevice("ghost", 0, 0); err == nil {
		t.Error("unknown node must error on plug")
	}
	if err := e.SetNodeSlowdown("ghost", 2, 0); err == nil {
		t.Error("unknown node must error on slowdown")
	}
	e.Shutdown()
	// Control calls after shutdown must not hang (events are dropped).
	for i := 0; i < 300; i++ {
		if err := e.SetNodeSlowdown(cluster.Nodes[0].Name, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRedundantPlugUnplugAreNoOps: control calls that do not change the
// device's attachment state must emit no control events — a VF plugged
// on an always-online device must not reset learned fpga drift, and a
// second unplug must not double-degrade tuners.
func TestRedundantPlugUnplugAreNoOps(t *testing.T) {
	cluster, _ := programmedCluster(t, 1)
	e := NewEngine(cluster, platform.NewRegistry(), EngineConfig{Adaptive: true})
	node := cluster.Nodes[0].Name
	// The engine is not started, so control messages stay queued and can
	// be inspected directly.
	if err := e.PlugDevice(node, 0, 0); err != nil {
		t.Fatal(err)
	}
	if msgs := e.takeCtrl(); len(msgs) != 0 {
		t.Fatalf("plug of attached device queued %d events, want 0", len(msgs))
	}
	if err := e.UnplugDevice(node, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := e.UnplugDevice(node, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	if msgs := e.takeCtrl(); len(msgs) != 1 {
		t.Fatalf("double unplug queued %d events, want 1", len(msgs))
	}
	if cluster.Nodes[0].DeviceOnline(0) {
		t.Fatal("device must be detached")
	}
	if err := e.PlugDevice(node, 0, 1.0); err != nil {
		t.Fatal(err)
	}
	if msgs := e.takeCtrl(); len(msgs) != 1 {
		t.Fatal("replug of a detached device must queue one event")
	}
}

func TestWorkQueueSteal(t *testing.T) {
	q := newWorkQueueCap(8)
	st := &wfState{}
	mk := func(name, variant string) execRequest {
		return execRequest{wf: st, task: &TaskSpec{Name: name}, variant: variant}
	}
	q.push(mk("a", VariantFPGA))
	q.push(mk("b", VariantCPU16))
	q.push(mk("c", VariantFPGA))
	stolen := q.steal(func(r execRequest) bool { return r.variant == VariantFPGA })
	if len(stolen) != 2 || stolen[0].task.Name != "a" || stolen[1].task.Name != "c" {
		t.Fatalf("stolen = %v", stolen)
	}
	r, ok := q.pop()
	if !ok || r.task.Name != "b" {
		t.Fatalf("queue after steal: %v %v", r, ok)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on an empty queue must report ok=false")
	}
}

// TestMonitorLearnsThroughEngine checks the learning path end to end: a
// slowed node's estimate converges from real completions.
func TestMonitorLearnsThroughEngine(t *testing.T) {
	cluster := testCluster(2)
	e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	slow := cluster.Nodes[0].Name
	if err := e.SetNodeSlowdown(slow, 6, 0); err != nil {
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
	if est := e.Monitor().SlowdownEstimate(slow); est < 2 {
		t.Errorf("slowdown estimate for %s = %g, want >= 2", slow, est)
	}
}
