package variants

import (
	"fmt"

	"everest/internal/ekl"
	"everest/internal/tensor"
)

// Example kernel sources: the compute cores of two paper use cases written
// in EKL, small enough to compile in tests yet shaped like the real thing.
// They are what `basecamp compile -kernel windpower|airquality` runs
// source-to-schedule and what the E-compile scenario serves.

// WindpowerEKL is the renewable-energy prediction kernel (paper §II-B): an
// RBF kernel-ridge-regression inference — squared distances between test
// and training feature rows, a Gaussian kernel evaluation, and the dual-
// weight contraction. The exp/pow per (i, j) pair is what the FPGA
// datapath absorbs in its pipelined special-function units while a CPU
// core pays a polynomial sequence for each: the offload win E-compile
// schedules around.
func WindpowerEKL() string {
	return `# Wind power KRR inference: pred[i] = sum_j exp(-gamma*||X_i - Z_j||^2) alpha_j
kernel windpower_krr {
  input X : [N, D]
  input Z : [M, D]
  input alpha : [M]
  param gamma = 0.5
  d2 = sum(d) pow(X[i, d] - Z[j, d], 2)
  kv = exp(-gamma * d2[i, j])
  pred = sum(j) kv[i, j] * alpha[j]
  output pred[i]
}
`
}

// AirqualityEKL is the air-quality calibration kernel (paper §II-C): a
// low-cost-sensor correction that applies a per-sensor linear gain/offset
// followed by a humidity-dependent exponential drift term.
func AirqualityEKL() string {
	return `# Air quality sensor calibration with humidity-dependent drift correction
kernel airquality_calib {
  input raw : [S, T]
  input hum : [S, T]
  input gain : [S]
  input offset : [S]
  param beta = 0.02
  corrected = (raw[s, t] - offset[s]) * gain[s] * exp(-beta * hum[s, t])
  output corrected[s, t]
}
`
}

// MatmulCFD is the CFDlang demo program (paper §V-B): the contracted tensor
// product that the legacy frontend's documentation opens with.
func MatmulCFD() string {
	return `# CFDlang matrix multiply: C = (A x B) contracted over dims 2 and 3
var input A : [64 96]
var input B : [96 48]
var output C : [64 48]
C = (A * B) . [[2 3]]
`
}

// exampleExtents pins the shape specialization of each example kernel.
var exampleExtents = map[string]map[string]int{
	"windpower":  {"N": 96, "M": 192, "D": 12},
	"airquality": {"S": 64, "T": 336},
}

// ExampleNames lists the built-in example kernels in stable order.
func ExampleNames() []string { return []string{"airquality", "windpower"} }

// ExampleKernel resolves a named example to its source and the
// deterministic binding it is specialized against.
func ExampleKernel(name string) (src string, binding ekl.Binding, err error) {
	switch name {
	case "windpower":
		src = WindpowerEKL()
	case "airquality":
		src = AirqualityEKL()
	default:
		return "", ekl.Binding{}, fmt.Errorf("variants: unknown example kernel %q (want windpower or airquality)", name)
	}
	k, err := ekl.ParseKernel(src)
	if err != nil {
		return "", ekl.Binding{}, err
	}
	return src, SynthesizeBinding(k, exampleExtents[name]), nil
}

// CompileExample compiles a built-in example kernel source-to-schedule.
func CompileExample(name string, opt Options) (*Compiled, error) {
	src, binding, err := ExampleKernel(name)
	if err != nil {
		return nil, err
	}
	return CompileEKL(src, binding, opt)
}

// SynthesizeBinding returns a deterministic, data-less binding for a
// kernel: each input is a tensor.Shaped whose symbolic dimensions take
// their extent from extents (16 where it is absent or not positive), and
// each parameter takes its declared default (1 for a defaultless iparam,
// 0.5 otherwise). Shapes, not values, drive hardware generation: values
// are created only when a statement evaluates (ekl.Binding).
func SynthesizeBinding(k *ekl.Kernel, extents map[string]int) ekl.Binding {
	b := ekl.Binding{
		Tensors: make(map[string]*tensor.Tensor),
		Scalars: make(map[string]float64),
	}
	for _, in := range k.Inputs {
		shape := make([]int, len(in.Dims))
		for i, d := range in.Dims {
			shape[i] = d.Size
			if d.Sym != "" {
				shape[i] = extents[d.Sym]
				if shape[i] < 1 {
					shape[i] = 16
				}
			}
		}
		b.Tensors[in.Name] = tensor.Shaped(shape...)
	}
	for _, p := range k.Params {
		switch {
		case p.HasDef:
			b.Scalars[p.Name] = p.Default
		case p.IsInt:
			b.Scalars[p.Name] = 1
		default:
			b.Scalars[p.Name] = 0.5
		}
	}
	return b
}
