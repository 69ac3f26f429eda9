package onnxlite

import (
	"math/rand"
	"strings"
	"testing"
)

func testMLP() *Model {
	rng := rand.New(rand.NewSource(1))
	w := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64() * 0.5
		}
		return out
	}
	return MLP2("mlp", 4, 8, 3, map[string][]float64{
		"w1": w(4 * 8), "b1": w(8), "w2": w(8 * 3),
	})
}

func TestValidateMLP(t *testing.T) {
	if err := testMLP().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []func(m *Model){
		func(m *Model) { m.Nodes = nil },
		func(m *Model) { m.Nodes[0].Inputs = []string{"ghost", "w1"} },
		func(m *Model) { m.Nodes[1].Output = "h0" }, // redefinition
		func(m *Model) { m.Outputs = []string{"ghost"} },
		func(m *Model) { m.Nodes[0].Op = "Gemm" },
		func(m *Model) { m.Init["w1"] = []float64{1, 2} }, // shape mismatch
		func(m *Model) { delete(m.InitDim, "w1") },
	}
	for i, mutate := range cases {
		m := testMLP()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: Validate must fail", i)
		}
	}
}

func TestLowerToJabbah(t *testing.T) {
	m := testMLP()
	mod, err := m.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if mod.CountOps("jabbah.matmul") != 2 {
		t.Errorf("matmul count = %d, want 2", mod.CountOps("jabbah.matmul"))
	}
	if mod.CountOps("jabbah.softmax") != 1 || mod.CountOps("jabbah.relu") != 1 {
		t.Error("activation ops missing")
	}
	text := mod.String()
	if !strings.Contains(text, "jabbah.graph") {
		t.Error("printed module missing jabbah.graph")
	}
}
