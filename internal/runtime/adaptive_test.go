package runtime

import (
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
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
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
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
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
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT})
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
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
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
	// Control calls after shutdown return at once with an error and leave
	// the node as it was.
	n := cluster.Nodes[0]
	for i := 0; i < 300; i++ {
		if err := e.SetNodeSlowdown(n.Name, 2, 0); err == nil {
			t.Fatal("slowdown after shutdown must error")
		}
	}
	if err := e.UnplugDevice(n.Name, 0, 0); err == nil {
		t.Error("unplug after shutdown must error")
	}
	if err := e.PlugDevice(n.Name, 0, 0); err == nil {
		t.Error("plug after shutdown must error")
	}
	if err := e.FailNode(n.Name, 0); err == nil {
		t.Error("node failure after shutdown must error")
	}
	if _, failed := n.FailedAt(); failed || n.Slowdown() != 1 || !n.DeviceOnline(0) {
		t.Error("control calls after shutdown must not touch the node")
	}
}

// TestRedundantPlugUnplugAreNoOps: control calls that do not change the
// device's attachment state must emit no control events and touch no
// tuner — a VF plugged on an always-online device must not reset learned
// fpga drift, and a second unplug must not double-degrade tuners. The
// calls come from trace callbacks, so the reactions land while the
// chain's tuner is active, before its next placement.
func TestRedundantPlugUnplugAreNoOps(t *testing.T) {
	cluster, bs := programmedCluster(t, 2)
	if _, err := cluster.Nodes[1].Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	n0, n1 := cluster.Nodes[0].Name, cluster.Nodes[1].Name
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	// The chain is the one active workflow; its tuner is the one to watch.
	tuner := func() *autotuner.Tuner {
		for st := range e.ds.active {
			return st.tuner
		}
		t.Fatal("no active workflow")
		return nil
	}
	var ctrlEvents []Event
	done, checked := 0, 0
	before := 0.0
	e.cfg.Trace = func(ev Event) {
		switch ev.Kind {
		case EventDeviceUnplug, EventDevicePlug:
			ctrlEvents = append(ctrlEvents, ev)
		case EventTaskDone:
			done++
			before = tuner().Expected(VariantFPGA)
			var errs []error
			switch done {
			case 1: // one real unplug, one redundant
				errs = append(errs, e.UnplugDevice(n0, 0, ev.Time), e.UnplugDevice(n0, 0, ev.Time))
			case 2: // a plug of an attached device
				errs = append(errs, e.PlugDevice(n1, 0, ev.Time))
			case 3: // a real replug
				errs = append(errs, e.PlugDevice(n0, 0, ev.Time))
			}
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		case EventVariant:
			// The first placement after each batch of calls sees their
			// reactions applied.
			if done == 0 || done > 3 || checked == done {
				return
			}
			checked = done
			got := tuner().Expected(VariantFPGA)
			switch done {
			case 1:
				// One programmed device stays online: a single Degrade by 2.
				if got != 2*before {
					t.Errorf("after unplug + redundant unplug: fpga expected %g, want %g (one degrade)", got, 2*before)
				}
			case 2:
				if got != before {
					t.Errorf("after a redundant plug: fpga expected %g, want %g unchanged", got, before)
				}
			case 3:
				if drift := tuner().Drift(VariantFPGA); drift != 1 {
					t.Errorf("after the replug: fpga drift %g, want 1 (reset)", drift)
				}
			}
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(fpgaChain(t, 5, bs.ID), SubmitOptions{Name: "noops"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if checked != 3 {
		t.Fatalf("checked %d control batches, want 3", checked)
	}
	if len(ctrlEvents) != 2 ||
		ctrlEvents[0].Kind != EventDeviceUnplug || ctrlEvents[0].Node != n0 ||
		ctrlEvents[1].Kind != EventDevicePlug || ctrlEvents[1].Node != n0 {
		t.Fatalf("control events %+v, want one unplug and one plug of %s", ctrlEvents, n0)
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
