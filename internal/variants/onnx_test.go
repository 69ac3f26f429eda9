package variants

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"everest/internal/ekl"
	"everest/internal/onnxlite"
	"everest/internal/runtime"
	"everest/internal/tensor"
)

// denseWeights returns small deterministic weights for a D->H->O network.
func denseWeights(d, h, o int) map[string][]float64 {
	fill := func(n int, scale float64) []float64 {
		out := make([]float64, n)
		seed := uint64(0x51ed2701fe3a29b7)
		for i := range out {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			out[i] = (float64(seed%2000)/1000 - 1) * scale
		}
		return out
	}
	return map[string][]float64{
		"w1": fill(d*h, 0.5), "b1": fill(h, 0.1),
		"w2": fill(h*o, 0.5), "b2": fill(o, 0.1),
	}
}

// TestONNXToEKLMatchesModelRun is the translation's acceptance test: the
// generated kernel's reference interpretation must compute exactly what
// onnxlite.Run computes on the same weights and input batch.
func TestONNXToEKLMatchesModelRun(t *testing.T) {
	const batch, d, h, o = 8, 6, 10, 2
	m := onnxlite.DenseMLP("energy-mlp", batch, d, h, o, denseWeights(d, h, o))
	src, binding, err := onnxToEKL(m, batch)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatalf("generated source does not parse: %v\nsource:\n%s", err, src)
	}
	res, err := k.Run(binding)
	if err != nil {
		t.Fatalf("generated kernel does not run: %v\nsource:\n%s", err, src)
	}
	var eklOut *tensor.Tensor
	for _, out := range res.Outputs {
		eklOut = out
	}
	ref, err := runModel(m, map[string]*tensor.Tensor{"x": binding.Tensors["x"]})
	if err != nil {
		t.Fatal(err)
	}
	want := ref["y"]
	if eklOut == nil || len(eklOut.Data()) != len(want.Data()) {
		t.Fatalf("output shape mismatch: ekl %v vs onnx %v", eklOut, want)
	}
	if diff := tensor.MaxAbsDiff(eklOut, want); diff > 1e-12 {
		t.Fatalf("EKL interpretation diverges from onnxlite.Run: max|diff| = %g", diff)
	}
}

// TestCompileONNXDerivesOperatingPoints runs the full source-to-schedule
// flow on the dense model: the compiled result must carry derived
// software and fpga operating points and a deployable bitstream.
func TestCompileONNXDerivesOperatingPoints(t *testing.T) {
	const batch, d, h = 16, 8, 12
	m := onnxlite.DenseMLP("energy-mlp", batch, d, h, 1, denseWeights(d, h, 1))
	c, err := CompileONNX(m, batch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Frontend != "ekl" {
		t.Fatalf("frontend = %q", c.Frontend)
	}
	if c.Design == nil || c.Design.Bitstream.ID == "" {
		t.Fatal("no generated bitstream")
	}
	if c.Flops <= 0 || c.InputBytes <= 0 || c.OutputBytes <= 0 {
		t.Fatalf("workload model not derived: flops=%g in=%d out=%d", c.Flops, c.InputBytes, c.OutputBytes)
	}
	for _, v := range []string{runtime.VariantCPU1.String(), runtime.VariantCPU16.String(), runtime.VariantFPGA.String()} {
		p, ok := c.Point(v)
		if !ok {
			t.Fatalf("missing operating point %s (have %+v)", v, c.Points)
		}
		if p.LatencySeconds <= 0 {
			t.Fatalf("%s latency not derived: %+v", v, p)
		}
	}
	// Softmax-headed models (MLP2) must also translate.
	m2 := onnxlite.MLP2("mlp2", d, h, 3, map[string][]float64{
		"w1": denseWeights(d, h, 3)["w1"], "b1": denseWeights(d, h, 3)["b1"],
		"w2": denseWeights(d, h, 3)["w2"],
	})
	src, binding, err := onnxToEKL(m2, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatalf("MLP2 source does not parse: %v\n%s", err, src)
	}
	res, err := k.Run(binding)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runModel(m2, map[string]*tensor.Tensor{"x": binding.Tensors["x"]})
	if err != nil {
		t.Fatal(err)
	}
	var got *tensor.Tensor
	for _, out := range res.Outputs {
		got = out
	}
	if diff := tensor.MaxAbsDiff(got, ref["probs"]); diff > 1e-9 {
		t.Fatalf("softmax head diverges: max|diff| = %g", diff)
	}
}

// TestONNXSharedInitializerDeclaredOnce: a tied weight or shared bias
// feeding several nodes must yield one EKL declaration, not a duplicate
// that fails the parse.
func TestONNXSharedInitializerDeclaredOnce(t *testing.T) {
	shared := &onnxlite.Model{
		Name:    "shared_bias",
		Inputs:  map[string][]int{"x": {4, 3}},
		Init:    map[string][]float64{"b": {0.1, 0.2, 0.3}},
		InitDim: map[string][]int{"b": {3}},
		Nodes: []onnxlite.Node{
			{Op: onnxlite.OpAdd, Name: "a1", Inputs: []string{"x", "b"}, Output: "h"},
			{Op: onnxlite.OpAdd, Name: "a2", Inputs: []string{"h", "b"}, Output: "y"},
		},
		Outputs: []string{"y"},
	}
	src, binding, err := onnxToEKL(shared, 4)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatalf("shared-initializer source does not parse: %v\n%s", err, src)
	}
	res, err := k.Run(binding)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runModel(shared, map[string]*tensor.Tensor{"x": binding.Tensors["x"]})
	if err != nil {
		t.Fatal(err)
	}
	var got *tensor.Tensor
	for _, out := range res.Outputs {
		got = out
	}
	if diff := tensor.MaxAbsDiff(got, ref["y"]); diff > 1e-12 {
		t.Fatalf("shared-initializer chain diverges: max|diff| = %g", diff)
	}
}

// TestCompileONNXRejectsNonChainModels pins the gate on unsupported
// graphs: conv nets and multi-input models have no EKL lowering.
func TestCompileONNXRejectsNonChainModels(t *testing.T) {
	conv := &onnxlite.Model{
		Name:   "conv",
		Inputs: map[string][]int{"img": {8, 8}},
		Init:   map[string][]float64{"k": {1, 0, 0, 1}},
		InitDim: map[string][]int{
			"k": {2, 2},
		},
		Nodes:   []onnxlite.Node{{Op: onnxlite.OpConv2D, Name: "c", Inputs: []string{"img", "k"}, Output: "y"}},
		Outputs: []string{"y"},
	}
	if _, err := CompileONNX(conv, 1, Options{}); err == nil ||
		!strings.Contains(err.Error(), "EKL lowering") {
		t.Fatalf("conv model accepted (err=%v)", err)
	}
	if _, err := CompileONNX(nil, 1, Options{}); err == nil {
		t.Fatal("nil model accepted")
	}
}

// TestMergeVariants pins the DAG-level seed merge: means per variant, and
// fpga present when any kernel offers it.
func TestMergeVariants(t *testing.T) {
	a := &Compiled{Points: []OperatingPoint{
		{Variant: runtime.VariantCPU1.String(), LatencySeconds: 0.010},
		{Variant: runtime.VariantCPU16.String(), LatencySeconds: 0.002},
		{Variant: runtime.VariantFPGA.String(), LatencySeconds: 0.001},
	}}
	b := &Compiled{Points: []OperatingPoint{
		{Variant: runtime.VariantCPU1.String(), LatencySeconds: 0.030},
		{Variant: runtime.VariantCPU16.String(), LatencySeconds: 0.006},
	}}
	merged := MergeVariants(a, b, nil)
	byName := make(map[string]float64)
	for _, v := range merged {
		byName[v.Name] = v.ExpectedMs
	}
	if math.Abs(byName[runtime.VariantCPU1.String()]-20) > 1e-9 {
		t.Fatalf("cpu1 mean = %g ms, want 20", byName[runtime.VariantCPU1.String()])
	}
	if math.Abs(byName[runtime.VariantCPU16.String()]-4) > 1e-9 {
		t.Fatalf("cpu16 mean = %g ms, want 4", byName[runtime.VariantCPU16.String()])
	}
	if math.Abs(byName[runtime.VariantFPGA.String()]-1) > 1e-9 {
		t.Fatalf("fpga mean = %g ms, want 1 (only kernel a offers it)", byName[runtime.VariantFPGA.String()])
	}
}

// runModel is the reference interpreter the EKL translations are checked
// against: it executes the graph on the given inputs, node by node, for
// the operators these tests' models use.
func runModel(m *onnxlite.Model, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, error) {
	env := make(map[string]*tensor.Tensor)
	for name, shape := range m.Inputs {
		t, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("missing input %q", name)
		}
		if len(t.Shape()) != len(shape) {
			return nil, fmt.Errorf("input %q rank mismatch", name)
		}
		env[name] = t
	}
	for name, data := range m.Init {
		env[name] = tensor.FromData(append([]float64(nil), data...), m.InitDim[name]...)
	}
	for _, n := range m.Nodes {
		args := make([]*tensor.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			args[i] = env[in]
		}
		out, err := applyOp(n.Op, args)
		if err != nil {
			return nil, fmt.Errorf("node %q: %w", n.Name, err)
		}
		env[n.Output] = out
	}
	res := make(map[string]*tensor.Tensor, len(m.Outputs))
	for _, out := range m.Outputs {
		res[out] = env[out]
	}
	return res, nil
}

func applyOp(op onnxlite.OpType, args []*tensor.Tensor) (*tensor.Tensor, error) {
	switch op {
	case onnxlite.OpMatMul:
		return tensor.MustEinsum("ij,jk->ik", args[0], args[1]), nil
	case onnxlite.OpAdd:
		// Row-broadcast bias: (N,D) + (D).
		if args[0].Rank() == 2 && args[1].Rank() == 1 && args[0].Shape()[1] == args[1].Shape()[0] {
			out := args[0].Clone()
			rows, cols := out.Shape()[0], out.Shape()[1]
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					out.Set(out.At(i, j)+args[1].At(j), i, j)
				}
			}
			return out, nil
		}
		return tensor.Add(args[0], args[1]), nil
	case onnxlite.OpRelu:
		return args[0].Map(func(v float64) float64 {
			if v < 0 {
				return 0
			}
			return v
		}), nil
	case onnxlite.OpSoftmax:
		x := args[0]
		rows, cols := x.Shape()[0], x.Shape()[1]
		out := tensor.New(rows, cols)
		for i := 0; i < rows; i++ {
			max := x.At(i, 0)
			for j := 1; j < cols; j++ {
				max = math.Max(max, x.At(i, j))
			}
			sum := 0.0
			for j := 0; j < cols; j++ {
				v := math.Exp(x.At(i, j) - max)
				out.Set(v, i, j)
				sum += v
			}
			for j := 0; j < cols; j++ {
				out.Set(out.At(i, j)/sum, i, j)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("no reference for op %q", op)
}
