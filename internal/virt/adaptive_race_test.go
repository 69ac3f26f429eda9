package virt_test

import (
	"sync"
	"testing"

	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/virt"
)

// TestUnplugRacedAgainstDispatch hammers the adaptation loop from both
// ends at once: two submitter goroutines drain a stream of FPGA workflows
// through one engine while two more plug and unplug the accelerators' VFs
// through the hypervisors, and a fifth reads Stats and Health. Every
// workflow must still complete with a full, dependency-ordered schedule,
// and the run must be -race clean: each hot-plug notification is one
// Engine.Apply, which writes the node under the serve lock, between two
// serves. A workflow served after an unplug prices the detached device
// and places its offload elsewhere, or degrades it to software; both end
// in a valid schedule.
func TestUnplugRacedAgainstDispatch(t *testing.T) {
	s := sdk.New(sdk.DefaultCluster(3))
	bs := sdk.ScenarioBitstream()
	if err := s.Registry.Put(bs); err != nil {
		t.Fatal(err)
	}
	hyps := make([]*virt.Hypervisor, 2)
	for i := range hyps {
		node := s.Cluster.Nodes[i]
		if _, err := s.Deploy(bs.ID, node.Name); err != nil {
			t.Fatal(err)
		}
		h, err := virt.NewHypervisor(node, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.DefineVM("guest", 4); err != nil {
			t.Fatal(err)
		}
		if _, err := h.PlugVF("guest", 0); err != nil {
			t.Fatal(err)
		}
		hyps[i] = h
	}

	eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT, Adaptive: true})
	for _, h := range hyps {
		sdk.AttachHypervisor(eng, h, nil)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}

	const workflows = 24
	futs := make([]*runtime.Future, workflows)
	var wg sync.WaitGroup
	// A reader polling Stats and Health from its own goroutine: both take
	// the serve lock, so they read the event loop's counters and the
	// monitor between submissions, never during one.
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if st := eng.Stats(); st.Completed > st.Submitted {
				t.Errorf("stats completed %d > submitted %d", st.Completed, st.Submitted)
				return
			}
			if h := eng.Health(); len(h) != len(s.Cluster.Nodes) {
				t.Errorf("health covers %d nodes, want %d", len(h), len(s.Cluster.Nodes))
				return
			}
		}
	}()
	// Two pluggers cycling their hypervisor's VF while dispatch runs. The
	// cycle count is bounded: hot-plug events are rare in the modelled
	// world, and each one waits for the serve lock.
	for _, h := range hyps {
		wg.Add(1)
		go func(h *virt.Hypervisor) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if _, err := h.UnplugVF("guest", 0); err != nil {
					t.Error(err)
					return
				}
				if _, err := h.PlugVF("guest", 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(h)
	}
	// Two submitters, each serving every other workflow.
	var submitters sync.WaitGroup
	for k := 0; k < 2; k++ {
		submitters.Add(1)
		go func(k int) {
			defer submitters.Done()
			for i := k; i < workflows; i += 2 {
				fut, err := eng.Submit(sdk.AdaptiveWorkflow(i, bs.ID), runtime.SubmitOptions{Tenant: "racer"})
				if err != nil {
					t.Error(err)
					return
				}
				futs[i] = fut
			}
		}(k)
	}
	submitters.Wait()
	if t.Failed() {
		close(done)
		wg.Wait()
		t.FailNow()
	}
	for i, fut := range futs {
		sched, err := fut.Wait()
		if err != nil {
			t.Fatalf("workflow %d: %v", i, err)
		}
		if len(sched.Assignments) != 4 {
			t.Fatalf("workflow %d: %d assignments, want 4", i, len(sched.Assignments))
		}
		byTask := sched.ByTask()
		for _, mc := range []string{"mc0", "mc1"} {
			if byTask[mc].Start < byTask["prep"].End-1e-12 {
				t.Errorf("workflow %d: %s starts before prep ends", i, mc)
			}
		}
	}
	close(done)
	wg.Wait()
	eng.Shutdown()
	if stats := sdk.TallyOf(futs); stats.Completed != workflows || stats.Failed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", stats.Completed, stats.Failed, workflows)
	}
	if st := eng.Stats(); st.Completed != workflows {
		t.Fatalf("engine stats count %d completed, want %d", st.Completed, workflows)
	}
}

// TestConcurrentUnplugMidTaskReschedules pins the deterministic half of
// the race: an unplug scripted at the modelled time the chain's first
// task completes moves the rest of the chain off the dead accelerator
// rather than silently degrading it to software there.
func TestConcurrentUnplugMidTaskReschedules(t *testing.T) {
	s := sdk.New(sdk.DefaultCluster(2))
	bs := sdk.ScenarioBitstream()
	if err := s.Registry.Put(bs); err != nil {
		t.Fatal(err)
	}
	node := s.Cluster.Nodes[0]
	if _, err := s.Deploy(bs.ID, node.Name); err != nil {
		t.Fatal(err)
	}
	w := runtime.NewWorkflow()
	prev := ""
	for _, name := range []string{"k0", "k1", "k2", "k3"} {
		spec := runtime.TaskSpec{
			Name: name, Flops: 5e10, InputBytes: 1 << 22, OutputBytes: 1 << 20,
			NeedsFPGA: true, BitstreamID: bs.ID,
		}
		if prev != "" {
			spec.Deps = []string{prev}
		}
		if err := w.Submit(spec); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	cfg := runtime.EngineConfig{Policy: runtime.PolicyHEFT, Adaptive: true}
	healthy, err := runtime.ServeAlone(s.Cluster, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	// Unplug the only accelerator when the first task completes.
	cfg.Events = []runtime.EnvEvent{{Kind: runtime.EnvUnplug, Node: node.Name, At: healthy.ByTask()["k0"].End}}
	sched, err := runtime.ServeAlone(s.Cluster, cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	byTask := sched.ByTask()
	if !byTask["k0"].OnFPGA {
		t.Error("k0 must run on the FPGA before the unplug")
	}
	for _, name := range []string{"k1", "k2", "k3"} {
		if byTask[name].OnFPGA {
			t.Errorf("%s ran on the FPGA after its device was unplugged", name)
		}
	}
	if sched.Adapt.Fallbacks != 0 {
		t.Errorf("adaptive chain paid %d fallbacks, want 0 (placed off the dead device instead)", sched.Adapt.Fallbacks)
	}
}
