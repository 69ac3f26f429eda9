package sdk

import (
	"math/rand"
	"testing"

	"everest/internal/base2"
	"everest/internal/ekl"
	"everest/internal/hls"
	"everest/internal/olympus"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/tensor"
	"everest/internal/traffic"
	"everest/internal/variants"
)

const saxpySrc = `
kernel saxpy {
  input x : [N]
  input y : [N]
  param alpha = 2.0
  out = alpha * x[i] + y[i]
  output out[i]
}
`

func saxpyBinding(n int) ekl.Binding {
	rng := rand.New(rand.NewSource(1))
	return ekl.Binding{Tensors: map[string]*tensor.Tensor{
		"x": tensor.Random(rng, -1, 1, n),
		"y": tensor.Random(rng, -1, 1, n),
	}}
}

func TestCompileEndToEnd(t *testing.T) {
	res, err := Compile(saxpySrc, saxpyBinding(4096), CompileOptions{
		Olympus: olympus.Options{SharePLM: true, DoubleBuffer: true, Replicate: true, MaxReplicas: 4, PackData: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Module.CountOps("affine.for") == 0 {
		t.Error("lowering must produce affine loops")
	}
	if res.Report.LatencyCycle <= 0 {
		t.Error("HLS report missing")
	}
	if res.Design.Bitstream.Config.Replicas < 1 {
		t.Error("olympus design missing")
	}
	if len(res.PassStats) != 2 {
		t.Errorf("expected 2 pass stats, got %d", len(res.PassStats))
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("kernel {", ekl.Binding{}, CompileOptions{}); err == nil {
		t.Error("parse error must propagate")
	}
	if _, err := Compile(saxpySrc, ekl.Binding{}, CompileOptions{}); err == nil {
		t.Error("missing binding must propagate")
	}
	if _, err := Compile(saxpySrc, saxpyBinding(64), CompileOptions{Backend: "ghdl"}); err == nil {
		t.Error("unknown backend must fail")
	}
	if _, err := Compile(saxpySrc, saxpyBinding(64), CompileOptions{Device: "virtex2"}); err == nil {
		t.Error("unknown device must fail")
	}
	posit, _ := base2.NewPositFormat(16, 1)
	if _, err := Compile(saxpySrc, saxpyBinding(64), CompileOptions{Backend: "vitis", Format: posit}); err == nil {
		t.Error("vitis+posit must fail (paper: posits need bambu)")
	}
	if _, err := Compile(saxpySrc, saxpyBinding(64), CompileOptions{Backend: "bambu", Format: posit}); err != nil {
		t.Errorf("bambu+posit must work: %v", err)
	}
}

func TestPublishDeployRun(t *testing.T) {
	s := New(DefaultCluster(2))
	res, err := Compile(saxpySrc, saxpyBinding(4096), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(res); err != nil {
		t.Fatal(err)
	}
	dt, err := s.Deploy(res.Design.Bitstream.ID, "node00")
	if err != nil || dt <= 0 {
		t.Fatalf("Deploy: %v (%g)", err, dt)
	}
	if _, err := s.Deploy(res.Design.Bitstream.ID, "ghost"); err == nil {
		t.Error("unknown node must fail")
	}
	if _, err := s.Deploy("missing", "node00"); err == nil {
		t.Error("unknown bitstream must fail")
	}

	// Serve a workflow that uses it.
	w := runtime.NewWorkflow()
	if err := w.Submit(runtime.TaskSpec{
		Name: "saxpy", Flops: 1e10, InputBytes: 1 << 22, OutputBytes: 1 << 22,
		NeedsFPGA: true, BitstreamID: res.Design.Bitstream.ID,
	}); err != nil {
		t.Fatal(err)
	}
	sched, err := runtime.ServeAlone(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT}, w)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Assignments[0].OnFPGA {
		t.Error("deployed kernel should run on the FPGA")
	}
}

func TestExplorePlacement(t *testing.T) {
	// E10 in miniature: a heavy data-parallel stage should go to FPGA, a
	// tiny control stage should stay on CPU.
	stages := []StageCost{
		{
			Name: "projection", Flops: 8e10, Offloadable: true,
			Kernel:  traffic.PTDRKernel(200, 20000),
			BytesIn: 1 << 24, BytesOut: 1 << 20,
		},
		{Name: "bookkeeping", Flops: 1e6, Offloadable: false},
	}
	ps, err := ExplorePlacement(stages, platform.XeonModel(), platform.AlveoU55C(), hls.VitisBackend{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Placement{}
	for _, p := range ps {
		byName[p.Stage] = p
	}
	if byName["projection"].Target != "fpga" {
		t.Errorf("heavy stage should offload, got %+v", byName["projection"])
	}
	if byName["bookkeeping"].Target != "cpu" {
		t.Errorf("tiny stage should stay on CPU, got %+v", byName["bookkeeping"])
	}

	// An FPGA placement pays the target device's own whole-device
	// reconfiguration (120 ms on an Alveo, 40 ms on a cloudFPGA) on top of
	// the design's modelled execution.
	for _, dev := range []*platform.Device{platform.AlveoU55C(), platform.CloudFPGA()} {
		ps, err := ExplorePlacement(stages[:1], platform.XeonModel(), dev, hls.VitisBackend{})
		if err != nil {
			t.Fatal(err)
		}
		design, err := olympus.Generate(stages[0].Kernel, hls.VitisBackend{}, dev, nil, olympus.Options{
			SharePLM: true, DoubleBuffer: true, Replicate: true, MaxReplicas: 8, PackData: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tl, err := platform.Execute(dev, design.Bitstream, platform.Workload{
			BytesIn: stages[0].BytesIn, BytesOut: stages[0].BytesOut, Batches: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		reconfig := dev.ReconfigSeconds()
		if p := ps[0]; p.Target != "fpga" || p.TimeSec != reconfig+tl.Total {
			t.Errorf("%s: projection placed %+v, want fpga at %g s (reconfiguration %g + execution %g)",
				dev.Name, p, reconfig+tl.Total, reconfig, tl.Total)
		}
	}
}

func TestGenericBinding(t *testing.T) {
	src := `
kernel g {
  input a : [N, 4]
  input sel : [N] index
  param w = 2.5
  iparam k
  out = w * a[i, j] + a[sel[i], j]
  output out[i, j]
}
`
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	b := variants.SynthesizeBinding(k, map[string]int{"N": 8})
	if b.Tensors["a"].Shape()[0] != 8 || b.Tensors["a"].Shape()[1] != 4 {
		t.Errorf("shape synthesis wrong: %v", b.Tensors["a"].Shape())
	}
	if b.Scalars["w"] != 2.5 {
		t.Error("param default not used")
	}
	if b.Scalars["k"] != 1 {
		t.Error("defaultless iparam should get 1")
	}
	// The binding must actually run.
	if _, err := k.Run(b); err != nil {
		t.Fatalf("generic binding must be runnable: %v", err)
	}
	// And compile end to end.
	if _, err := Compile(src, b, CompileOptions{}); err != nil {
		t.Fatalf("generic binding must compile: %v", err)
	}
}

func TestDefaultClusterShape(t *testing.T) {
	c := DefaultCluster(3)
	if len(c.Nodes) != 4 {
		t.Fatalf("nodes = %d, want 3 + cloudfpga", len(c.Nodes))
	}
	if c.FindNode("cloudfpga0") == nil {
		t.Error("cloudFPGA node missing")
	}
	if c.Nodes[0].Devices[0].Attachment != platform.PCIeAttached {
		t.Error("compute nodes must carry PCIe FPGAs")
	}
}
