package mlir_test

// Golden-file tests for the MLIR printer and verifier: real pipeline
// modules — an EKL kernel lowered through every stage and a CFDlang
// program — are printed and compared byte-for-byte against committed
// .mlir goldens. The printer is deterministic (sorted attributes, values
// numbered in creation order), so any drift in op coverage, attribute
// rendering, or lowering shape shows up as a diff. Regenerate with:
//
//	go test ./internal/mlir -run Golden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"everest/internal/cfdlang"
	"everest/internal/ekl"
	"everest/internal/mlir"
	"everest/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite the .mlir goldens from current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s (run with -update if intended)\n--- got ---\n%s\n--- want ---\n%s",
			path, got, string(want))
	}
}

// goldenKernel covers every ekl-dialect op the variant pipeline emits:
// tensor bindings (input/param/iota kinds), gather (subscripted
// subscript), select, unary, binary, einsum, and output.
func goldenKernel(t *testing.T) (*ekl.Kernel, ekl.Binding) {
	t.Helper()
	src := `kernel golden {
  input a : [4]
  input idx : [4] index
  input m : [4, 4]
  param c = 0.5
  g = m[idx[i], i]
  s = select(a[i] <= c, g[i], -a[i])
  e = exp(s[i])
  y = sum(i) e[i] * a[i]
  output y
}
`
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(4)
	m := tensor.New(4, 4)
	for i := 0; i < 4; i++ {
		a.Set(float64(i)/4, i)
		for j := 0; j < 4; j++ {
			m.Set(float64(i*4+j), i, j)
		}
	}
	return k, ekl.Binding{
		Tensors: map[string]*tensor.Tensor{"a": a, "idx": tensor.New(4), "m": m},
	}
}

func TestGoldenEKLLowered(t *testing.T) {
	k, b := goldenKernel(t)
	module, _, err := ekl.Lower(k, b)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ekl_kernel.mlir", module.String())

	// Through the full pipeline: einsum -> teil loop nests -> affine.for,
	// verifying between passes.
	pm := mlir.NewPassManager().Add(ekl.LowerToTeIL(), ekl.LowerToAffine())
	if err := pm.Run(module); err != nil {
		t.Fatal(err)
	}
	if err := module.Verify(); err != nil {
		t.Fatalf("lowered module does not verify: %v", err)
	}
	checkGolden(t, "ekl_affine.mlir", module.String())
}

func TestGoldenCFDlang(t *testing.T) {
	src := `var input A : [2 3]
var input B : [3 2]
var input D : [2 2]
var output C : [2 2]
C = (A * B) . [[2 3]] + D - D
`
	p, err := cfdlang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	module, err := p.EmitModule("golden_cfd")
	if err != nil {
		t.Fatal(err)
	}
	if err := module.Verify(); err != nil {
		t.Fatalf("cfdlang module does not verify: %v", err)
	}
	checkGolden(t, "cfdlang_prog.mlir", module.String())
}
