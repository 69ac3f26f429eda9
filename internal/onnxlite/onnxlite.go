// Package onnxlite implements the ML-model entry point of the EVEREST SDK
// (paper §V-A: "the SDK supports standard ONNX ML models"): a minimal
// ONNX-like graph representation with shape inference, a reference executor,
// and lowering into the jabbah MLIR dialect (the Operation Set Architecture
// layer of Fig. 5 used to converge the ML frontends).
package onnxlite

import (
	"fmt"

	"everest/internal/mlir"
	"everest/internal/mlir/dialects"
)

// OpType enumerates the supported graph operators.
type OpType string

// Supported operators.
const (
	OpMatMul  OpType = "MatMul"
	OpAdd     OpType = "Add"
	OpRelu    OpType = "Relu"
	OpConv2D  OpType = "Conv2D" // NHW (single channel) valid-padding conv
	OpSoftmax OpType = "Softmax"
	OpMaxPool OpType = "MaxPool" // 2x2, stride 2
)

// Node is one graph operator application.
type Node struct {
	Op     OpType   `json:"op"`
	Name   string   `json:"name"`
	Inputs []string `json:"inputs"`
	Output string   `json:"output"`
}

// Model is an ONNX-like inference graph.
type Model struct {
	Name    string               `json:"name"`
	Inputs  map[string][]int     `json:"inputs"` // name -> shape
	Init    map[string][]float64 `json:"init"`   // weights (flattened)
	InitDim map[string][]int     `json:"init_dim"`
	Nodes   []Node               `json:"nodes"`
	Outputs []string             `json:"outputs"`
}

// Validate checks graph well-formedness: defined names, acyclic order,
// known ops, weight shapes.
func (m *Model) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("onnxlite: model %q has no nodes", m.Name)
	}
	defined := make(map[string]bool)
	for name := range m.Inputs {
		defined[name] = true
	}
	for name, data := range m.Init {
		dims, ok := m.InitDim[name]
		if !ok {
			return fmt.Errorf("onnxlite: initializer %q has no shape", name)
		}
		n := 1
		for _, d := range dims {
			n *= d
		}
		if n != len(data) {
			return fmt.Errorf("onnxlite: initializer %q has %d values for shape %v", name, len(data), dims)
		}
		defined[name] = true
	}
	for _, n := range m.Nodes {
		switch n.Op {
		case OpMatMul, OpAdd, OpRelu, OpConv2D, OpSoftmax, OpMaxPool:
		default:
			return fmt.Errorf("onnxlite: unsupported op %q", n.Op)
		}
		for _, in := range n.Inputs {
			if !defined[in] {
				return fmt.Errorf("onnxlite: node %q uses undefined input %q", n.Name, in)
			}
		}
		if defined[n.Output] {
			return fmt.Errorf("onnxlite: output %q redefined", n.Output)
		}
		defined[n.Output] = true
	}
	for _, out := range m.Outputs {
		if !defined[out] {
			return fmt.Errorf("onnxlite: graph output %q undefined", out)
		}
	}
	return nil
}

// Lower emits the model as a jabbah-dialect MLIR module: the OSA layer that
// converges ML frontends before FPGA mapping (Ringlein et al., CAL 2023).
func (m *Model) Lower() (*mlir.Module, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ctx := mlir.NewContext()
	dialects.RegisterAll(ctx)
	mod := mlir.NewModule(ctx, m.Name)
	b := mlir.NewBuilder(ctx, mod.Body())
	gop := b.CreateWithRegions("jabbah.graph", nil, nil, map[string]mlir.Attribute{
		"sym_name": mlir.StringAttr(m.Name),
	}, 1)
	gb := mlir.NewBuilder(ctx, gop.Regions[0].Entry())

	vals := make(map[string]*mlir.Value)
	mk := func(name string, shape []int, kind string) {
		op := gb.Create("ekl.tensor", nil,
			[]mlir.Type{mlir.TensorOf(mlir.F32(), shape...)},
			map[string]mlir.Attribute{"name": mlir.StringAttr(name), "kind": mlir.StringAttr(kind)})
		op.Result(0).SetName(name)
		vals[name] = op.Result(0)
	}
	for name, shape := range m.Inputs {
		mk(name, shape, "input")
	}
	for name := range m.Init {
		mk(name, m.InitDim[name], "weight")
	}
	for _, n := range m.Nodes {
		operands := make([]*mlir.Value, len(n.Inputs))
		for i, in := range n.Inputs {
			operands[i] = vals[in]
		}
		var opName string
		attrs := map[string]mlir.Attribute{}
		switch n.Op {
		case OpMatMul:
			opName = "jabbah.matmul"
		case OpAdd:
			opName = "jabbah.add"
		case OpRelu:
			opName = "jabbah.relu"
		case OpConv2D:
			opName = "jabbah.conv2d"
		case OpSoftmax:
			opName = "jabbah.softmax"
		case OpMaxPool:
			opName = "jabbah.pool"
			attrs["kind"] = mlir.StringAttr("max")
		}
		op := gb.Create(opName, operands, []mlir.Type{mlir.TensorOf(mlir.F32())}, attrs)
		op.Result(0).SetName(n.Output)
		vals[n.Output] = op.Result(0)
	}
	outs := make([]*mlir.Value, len(m.Outputs))
	for i, o := range m.Outputs {
		outs[i] = vals[o]
	}
	gb.Create("jabbah.output", outs, nil, nil)
	if err := mod.Verify(); err != nil {
		return nil, err
	}
	return mod, nil
}

// MLP2 builds a small two-layer perceptron model (the quickstart's demo
// network): x(N,D) -> MatMul W1 -> Add b1 -> Relu -> MatMul W2 -> Softmax.
func MLP2(name string, d, hidden, classes int, weights map[string][]float64) *Model {
	return &Model{
		Name:   name,
		Inputs: map[string][]int{"x": {1, d}},
		Init: map[string][]float64{
			"w1": weights["w1"], "b1": weights["b1"],
			"w2": weights["w2"],
		},
		InitDim: map[string][]int{
			"w1": {d, hidden}, "b1": {hidden}, "w2": {hidden, classes},
		},
		Nodes: []Node{
			{Op: OpMatMul, Name: "fc1", Inputs: []string{"x", "w1"}, Output: "h0"},
			{Op: OpAdd, Name: "bias1", Inputs: []string{"h0", "b1"}, Output: "h1"},
			{Op: OpRelu, Name: "act1", Inputs: []string{"h1"}, Output: "h2"},
			{Op: OpMatMul, Name: "fc2", Inputs: []string{"h2", "w2"}, Output: "logits"},
			{Op: OpSoftmax, Name: "prob", Inputs: []string{"logits"}, Output: "probs"},
		},
		Outputs: []string{"probs"},
	}
}

// DenseMLP builds a two-layer regression network: x(B,D) -> MatMul W1 ->
// Add b1 -> Relu -> MatMul W2 -> Add b2. Unlike MLP2 there is no softmax
// head — the output is a real-valued prediction vector, the shape the
// energy-forecast inference stage serves.
func DenseMLP(name string, batch, d, hidden, out int, weights map[string][]float64) *Model {
	return &Model{
		Name:   name,
		Inputs: map[string][]int{"x": {batch, d}},
		Init: map[string][]float64{
			"w1": weights["w1"], "b1": weights["b1"],
			"w2": weights["w2"], "b2": weights["b2"],
		},
		InitDim: map[string][]int{
			"w1": {d, hidden}, "b1": {hidden},
			"w2": {hidden, out}, "b2": {out},
		},
		Nodes: []Node{
			{Op: OpMatMul, Name: "fc1", Inputs: []string{"x", "w1"}, Output: "h0"},
			{Op: OpAdd, Name: "bias1", Inputs: []string{"h0", "b1"}, Output: "h1"},
			{Op: OpRelu, Name: "act1", Inputs: []string{"h1"}, Output: "h2"},
			{Op: OpMatMul, Name: "fc2", Inputs: []string{"h2", "w2"}, Output: "h3"},
			{Op: OpAdd, Name: "bias2", Inputs: []string{"h3", "b2"}, Output: "y"},
		},
		Outputs: []string{"y"},
	}
}
