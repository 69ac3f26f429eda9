package cfdlang

import (
	"math/rand"
	"strings"
	"testing"

	"everest/internal/tensor"
)

const matmulSrc = `
# matrix multiply via tensor product + contraction
var input  A : [4 5]
var input  B : [5 6]
var output C : [4 6]
C = (A * B) . [[2 3]]
`

func TestParseMatmul(t *testing.T) {
	p, err := Parse(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Decls) != 3 || len(p.Stmts) != 1 {
		t.Fatalf("decls=%d stmts=%d", len(p.Decls), len(p.Stmts))
	}
	if !p.Decl("C").Output || p.Decl("A").Output {
		t.Error("output flags wrong")
	}
	c, ok := p.Stmts[0].RHS.(Contract)
	if !ok {
		t.Fatalf("RHS is %T, want Contract", p.Stmts[0].RHS)
	}
	if len(c.Pairs) != 1 || c.Pairs[0] != [2]int{2, 3} {
		t.Errorf("pairs = %v", c.Pairs)
	}
}

func TestRunMatmulMatchesEinsum(t *testing.T) {
	p, err := Parse(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := tensor.Random(rng, -1, 1, 4, 5)
	b := tensor.Random(rng, -1, 1, 5, 6)
	out, err := p.Run(map[string]*tensor.Tensor{"A": a, "B": b})
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MustEinsum("ij,jk->ik", a, b)
	if tensor.MaxAbsDiff(out["C"], want) > 1e-12 {
		t.Error("CFDlang matmul disagrees with einsum matmul")
	}
}

func TestTraceAndElementwise(t *testing.T) {
	src := `
var input  M : [3 3]
var input  N : [3 3]
var output S : [3 3]
var output T : [3 3]
S = M + N - M
T = M - M + N
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	m := tensor.Random(rng, -1, 1, 3, 3)
	n := tensor.Random(rng, -1, 1, 3, 3)
	out, err := p.Run(map[string]*tensor.Tensor{"M": m, "N": n})
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(out["S"], n) > 1e-12 || tensor.MaxAbsDiff(out["T"], n) > 1e-12 {
		t.Error("elementwise chain wrong")
	}
}

func TestHighOrderContraction(t *testing.T) {
	// Interpolation-like kernel from the CFDlang paper: u = (A * A * v)
	// contracted on both A dimensions — (A ⊗ A ⊗ v) with pairs (2,5),(4,6)
	// computes A v Aᵀ for matching shapes.
	src := `
var input  A : [3 3]
var input  v : [3 3]
var output u : [3 3]
u = (A * A * v) . [[2 5] [4 6]]
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	a := tensor.Random(rng, -1, 1, 3, 3)
	v := tensor.Random(rng, -1, 1, 3, 3)
	out, err := p.Run(map[string]*tensor.Tensor{"A": a, "v": v})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: u[i,k] = sum_{j,l} A[i,j] A[k,l] v[j,l].
	want := tensor.MustEinsum("ij,kl,jl->ik", a, a, v)
	if tensor.MaxAbsDiff(out["u"], want) > 1e-10 {
		t.Error("high-order contraction wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"var inpt A : [3]",
		"var input A : [0]",
		"var input A : 3",
		"C = A",                    // undeclared target
		"var input A : [3]\nA = A", // assignment to input
		"var input A : [3]\nvar output B : [3]\nB = A . [2 3]",            // bad pair syntax
		"var input A : [3]\nvar input A : [3]\nvar output B : [3]\nB = A", // redeclared
		"var input A : [3]\nvar output B : [3]\nB = A)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestRunErrors(t *testing.T) {
	p, err := Parse(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(nil); err == nil {
		t.Error("missing inputs must fail")
	}
	bad := map[string]*tensor.Tensor{
		"A": tensor.New(4, 4), "B": tensor.New(5, 6), // A shape mismatch
	}
	if _, err := p.Run(bad); err == nil {
		t.Error("shape mismatch must fail")
	}
	// Contraction of unequal extents.
	src := `
var input A : [3 4]
var output B : [1]
B = A . [[1 2]]
`
	p2, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Run(map[string]*tensor.Tensor{"A": tensor.New(3, 4)}); err == nil {
		t.Error("contraction of unequal extents must fail")
	}
}

func TestEmitModule(t *testing.T) {
	p, err := Parse(matmulSrc)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.EmitModule("matmul")
	if err != nil {
		t.Fatal(err)
	}
	if m.CountOps("cfdlang.mul") != 1 || m.CountOps("cfdlang.contract") != 1 {
		t.Error("op counts wrong")
	}
	text := m.String()
	if !strings.Contains(text, "cfdlang.prog") || !strings.Contains(text, `pairs = "2 3"`) {
		t.Errorf("printed module missing pieces:\n%s", text)
	}
}

func TestOuterProductShape(t *testing.T) {
	a := tensor.FromData([]float64{1, 2}, 2)
	b := tensor.FromData([]float64{3, 4, 5}, 3)
	o := outerProduct(a, b)
	if o.Rank() != 2 || o.Shape()[0] != 2 || o.Shape()[1] != 3 {
		t.Fatalf("outer shape %v", o.Shape())
	}
	if o.At(1, 2) != 10 {
		t.Errorf("outer value wrong: %v", o.Data())
	}
}
