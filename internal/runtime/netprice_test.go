package runtime

import (
	"testing"

	"everest/internal/autotuner"
	"everest/internal/netsim"
)

// Packetization-aware transfer pricing (EngineConfig.Net): the engine
// charges netsim.Stack.SendSeconds per coalesced source batch instead of
// the cluster's flat link model.

func TestTransferSecondsStackVsFlat(t *testing.T) {
	cluster := testCluster(2)
	stack := netsim.TCP10G()
	withNet := NewEngine(cluster, EngineConfig{Net: &stack})
	flat := NewEngine(cluster, EngineConfig{})

	const bytes = int64(1 << 20)
	got := withNet.transferSeconds("a", "b", bytes, 3)
	if want := stack.SendSeconds(bytes); got != want {
		t.Fatalf("stack pricing = %g, want SendSeconds = %g", got, want)
	}
	if got := flat.transferSeconds("a", "b", bytes, 3); got != cluster.BatchTransferSeconds("a", "b", bytes, 3) {
		t.Fatalf("flat pricing diverged from BatchTransferSeconds: %g", got)
	}
	// Same-node and zero-dependency moves are free either way.
	for _, e := range []*Engine{withNet, flat} {
		if e.transferSeconds("a", "a", bytes, 2) != 0 {
			t.Fatal("same-node transfer must be free")
		}
		if e.transferSeconds("a", "b", bytes, 0) != 0 {
			t.Fatal("zero-dependency transfer must be free")
		}
	}
	// The 10G stack with per-MTU framing is strictly slower than the
	// 100G data-center fabric for bulk payloads.
	if got <= cluster.BatchTransferSeconds("a", "b", bytes, 1) {
		t.Fatal("tcp10g should price bulk transfers above the flat 100G fabric")
	}
}

// A cross-node dependency chain pays the stack's latency+framing: the same
// workload served over tcp10g has a strictly longer makespan than over the
// flat fabric, by at least the stack's one-way latency per forced transfer.
func TestEngineMakespanReflectsStackPricing(t *testing.T) {
	run := func(net *netsim.Stack) float64 {
		// One node busy: a two-task chain where the dependent lands on the
		// other node only if the first node is still busy — instead force
		// locality with a fan-out: two heavy roots occupy both nodes, and a
		// join must pull one output across.
		cluster := testCluster(2)
		e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Net: net})
		w := NewWorkflow()
		for _, spec := range []TaskSpec{
			{Name: "left", Flops: 2e9, OutputBytes: 1 << 22, Cores: 1},
			{Name: "right", Flops: 2e9, OutputBytes: 1 << 22, Cores: 1},
			{Name: "join", Deps: []string{"left", "right"}, Flops: 1e8, InputBytes: 1 << 23, Cores: 1},
		} {
			if err := w.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		fut, err := e.Submit(w, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := fut.Wait()
		e.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		if sched.Transfers < 1 {
			t.Fatalf("join must pull at least one output across nodes, got %d transfers", sched.Transfers)
		}
		return sched.Makespan
	}
	stack := netsim.TCP10G()
	slow := run(&stack)
	fast := run(nil)
	if slow <= fast {
		t.Fatalf("tcp10g makespan %g should exceed flat-fabric makespan %g", slow, fast)
	}
	// The gap is at least the packetized cost of the 4 MiB batch minus the
	// flat cost of the same batch.
	minGap := stack.SendSeconds(1<<22) - testCluster(2).BatchTransferSeconds("a", "b", 1<<22, 1)
	if slow-fast < minGap*0.9 {
		t.Fatalf("makespan gap %g smaller than the transfer pricing gap %g", slow-fast, minGap)
	}
}

// Compiler-derived variants attached to a workflow seed the adaptive
// tuner verbatim; the engine does not re-derive seeds from the task specs.
func TestWorkflowVariantsSeedTuner(t *testing.T) {
	cluster := testCluster(2)
	e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
	defer e.Shutdown()

	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "t", Flops: 1e9, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	w.SetVariants([]autotuner.Variant{
		{Name: VariantCPU1.String(), ExpectedMs: 123},
		{Name: VariantCPU16.String(), ExpectedMs: 7},
	})
	st := e.newWFState(w, "wf", "tenant", &Schedule{})
	if !e.seedTuner(st) {
		t.Fatal("no tuner")
	}
	tn := &st.tuner
	// One observation of twice the seed moves the EWMA to 1.5x the seed, so
	// the drift reads 1.5 only when cpu1 was seeded with the compiled 123.
	tn.Observe(st.points[VariantCPU1], 246)
	if got := tn.Drift(st.points[VariantCPU1]); got != 1.5 {
		t.Fatalf("cpu1 drift after observing 246 ms = %g, want 1.5 (the compiled seed 123)", got)
	}
	if got := tn.Best(); got != VariantCPU16.String() {
		t.Fatalf("best = %s, want cpu16", got)
	}
	if st.known(VariantFPGA) {
		t.Fatal("fpga must be absent when the compiled set has no fpga point")
	}

	// A malformed set falls back to engine-derived seeds instead of
	// disabling adaptation.
	w2 := NewWorkflow()
	if err := w2.Submit(TaskSpec{Name: "t", Flops: 1e9, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	w2.SetVariants([]autotuner.Variant{{Name: VariantCPU1.String(), ExpectedMs: -1}})
	st2 := e.newWFState(w2, "wf2", "tenant", &Schedule{})
	if !e.seedTuner(st2) || !st2.known(VariantCPU16) {
		t.Fatal("malformed variant set must fall back to derived seeds")
	}
}
