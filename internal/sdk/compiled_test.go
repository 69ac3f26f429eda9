package sdk

import (
	"testing"

	"everest/internal/runtime"
)

func TestCompiledScenarioDeterministicAndAdaptiveWins(t *testing.T) {
	sc := DefaultCompiledScenario()

	static1, err := runOnce(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	adaptive1, err := runOnce(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	// Exact repeatability: the scenario serves workflows sequentially over
	// modelled-time fault timelines, so a rerun reproduces the makespan
	// bit-for-bit (this is what lets CI gate speedup_compiled).
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	static2, adaptive2, err := sc.AdaptWin(c)
	if err != nil {
		t.Fatal(err)
	}
	if static1.Makespan != static2.Makespan || adaptive1.Makespan != adaptive2.Makespan {
		t.Fatalf("scenario not deterministic: static %g vs %g, adaptive %g vs %g",
			static1.Makespan, static2.Makespan, adaptive1.Makespan, adaptive2.Makespan)
	}

	if adaptive1.Makespan <= 0 || static1.Makespan <= 0 {
		t.Fatal("makespans must be positive")
	}
	speedup := static1.Makespan / adaptive1.Makespan
	if speedup < 1.2 {
		t.Fatalf("compiled-variant adaptation speedup %.3f, want >= 1.2", speedup)
	}

	// The compiled variants are actually exercised: the adaptive arm keeps
	// offloading to the surviving accelerator AND reroutes onto cpu16 —
	// both choices coming from compiler-derived operating points.
	fpga, cpu16 := 0, 0
	for _, ts := range adaptive1.Stats.Tenants {
		fpga += ts.Variants[runtime.VariantFPGA.String()]
		cpu16 += ts.Variants[runtime.VariantCPU16.String()]
	}
	if fpga == 0 || cpu16 == 0 {
		t.Fatalf("adaptive arm should place both fpga and cpu16 variants, got fpga=%d cpu16=%d", fpga, cpu16)
	}

	// The static arm pays the unplug with software fallbacks; the adaptive
	// arm avoids them by never dispatching FPGA work at a dead device.
	staticFallbacks, adaptiveFallbacks := 0, 0
	for _, ts := range static1.Stats.Tenants {
		staticFallbacks += ts.Fallbacks
	}
	for _, ts := range adaptive1.Stats.Tenants {
		adaptiveFallbacks += ts.Fallbacks
	}
	if staticFallbacks == 0 {
		t.Fatal("static arm should hit device-gone fallbacks under the unplug fault")
	}
	if adaptiveFallbacks > staticFallbacks {
		t.Fatalf("adaptive arm pays more fallbacks (%d) than static (%d)", adaptiveFallbacks, staticFallbacks)
	}
}

func TestCompiledScenarioValidation(t *testing.T) {
	sc := DefaultCompiledScenario()
	sc.Nodes = 1
	if _, err := runOnce(sc, false); err == nil {
		t.Fatal("one-node scenario should be rejected")
	}
	sc = DefaultCompiledScenario()
	sc.Slowdown = 0.5
	if _, err := runOnce(sc, false); err == nil {
		t.Fatal("sub-nominal slowdown should be rejected")
	}
	sc = DefaultCompiledScenario()
	sc.Kernel = "nope"
	if _, err := runOnce(sc, false); err == nil {
		t.Fatal("unknown kernel should be rejected")
	}
	sc = DefaultCompiledScenario()
	sc.Net = "carrier-pigeon"
	if _, err := runOnce(sc, false); err == nil {
		t.Fatal("unknown network stack should be rejected")
	}
}

func TestCompiledWorkflowShape(t *testing.T) {
	sc := DefaultCompiledScenario()
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	w := CompiledWorkflow(0, c)
	if w.Len() != 4 {
		t.Fatalf("workflow has %d tasks, want 4", w.Len())
	}
	for _, name := range []string{"k0", "k1"} {
		spec, ok := w.Get(name)
		if !ok {
			t.Fatalf("missing kernel task %s", name)
		}
		if !spec.NeedsFPGA || spec.BitstreamID != c.Design.Bitstream.ID {
			t.Fatalf("%s not bound to the compiled bitstream: %+v", name, spec)
		}
		if spec.Flops != c.Flops || spec.InputBytes != c.InputBytes || spec.OutputBytes != c.OutputBytes {
			t.Fatalf("%s workload not derived from compilation: %+v", name, spec)
		}
	}
}
