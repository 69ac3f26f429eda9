package ekl

import (
	"strings"
	"testing"

	"everest/internal/tensor"
)

func TestProgramFindMultipleKernels(t *testing.T) {
	src := `
kernel first {
  input a : [N]
  out = a[i]
  output out[i]
}
kernel second {
  input b : [M]
  res = b[i] * 2
  output res[i]
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Kernels) != 2 {
		t.Fatalf("kernels = %d", len(prog.Kernels))
	}
	if _, err := ParseKernel(src); err == nil {
		t.Error("ParseKernel must reject multi-kernel source")
	}
}

func TestKernelAccessors(t *testing.T) {
	k := mustParse(t, axpySrc)
	if k.Output("out") == nil || k.Output("ghost") != nil {
		t.Error("Output lookup broken")
	}
}

func TestExprStrings(t *testing.T) {
	src := `
kernel s {
  input a : [N]
  input j : [M] index
  param w = 1.5
  t = [j[i], j[i]+1]
  out = select(a[i] <= w, -a[i], sum(q) a[q] * a[q]) / 2
  output out[i]
}
`
	k := mustParse(t, src)
	pair := k.Stmts[0].RHS.String()
	if !strings.Contains(pair, "[j[i], (j[i] + 1)]") {
		t.Errorf("pair String = %q", pair)
	}
	sel := k.Stmts[1].RHS.String()
	for _, frag := range []string{"select", "(a[i] <= w)", "(-a[i])", "sum(q)", "/ 2"} {
		if !strings.Contains(sel, frag) {
			t.Errorf("expr String %q missing %q", sel, frag)
		}
	}
	if (Dim{Sym: "N"}).String() != "N" || (Dim{Size: 4}).String() != "4" {
		t.Error("Dim String broken")
	}
}

func TestNegativeParamDefault(t *testing.T) {
	src := `
kernel neg {
  input a : [N]
  param bias = -2.5
  out = a[i] + bias
  output out[i]
}
`
	k := mustParse(t, src)
	res, err := k.Run(Binding{Tensors: map[string]*tensor.Tensor{
		"a": tensor.FromData([]float64{1}, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["out"].At(0) != -1.5 {
		t.Errorf("negative default = %g", res.Outputs["out"].At(0))
	}
}

func TestIparamRejectsNonIntegral(t *testing.T) {
	src := `
kernel ip {
  input a : [N]
  iparam k
  out = a[i] + k
  output out[i]
}
`
	kk := mustParse(t, src)
	bind := Binding{
		Tensors: map[string]*tensor.Tensor{"a": tensor.New(2)},
		Scalars: map[string]float64{"k": 1.5},
	}
	if _, err := kk.Run(bind); err == nil {
		t.Error("fractional iparam must fail")
	}
	bind.Scalars["k"] = 2
	if _, err := kk.Run(bind); err != nil {
		t.Errorf("integral iparam must pass: %v", err)
	}
}

func TestNestedSumRestoresIndexState(t *testing.T) {
	// An index reused between nested sums must be restored after the inner
	// reduction completes.
	src := `
kernel nest {
  input m : [A, B]
  out = sum(i) (sum(j) m[i, j]) * (sum(j) m[i, j])
  output out
}
`
	k := mustParse(t, src)
	m := tensor.FromData([]float64{1, 2, 3, 4}, 2, 2)
	res, err := k.Run(Binding{Tensors: map[string]*tensor.Tensor{"m": m}})
	if err != nil {
		t.Fatal(err)
	}
	// (1+2)^2 + (3+4)^2 = 9 + 49 = 58.
	if got := res.Outputs["out"].Item(); got != 58 {
		t.Errorf("nested sums = %g, want 58", got)
	}
}

func TestDivisionAndComparisonOps(t *testing.T) {
	src := `
kernel ops {
  input a : [N]
  input b : [N]
  out = (a[i] / b[i]) * (a[i] != b[i]) + (a[i] == b[i]) * 100 + (a[i] > b[i]) + (a[i] >= b[i])
  output out[i]
}
`
	k := mustParse(t, src)
	a := tensor.FromData([]float64{6, 5}, 2)
	b := tensor.FromData([]float64{3, 5}, 2)
	res, err := k.Run(Binding{Tensors: map[string]*tensor.Tensor{"a": a, "b": b}})
	if err != nil {
		t.Fatal(err)
	}
	// i=0: 6/3*1 + 0 + 1 + 1 = 4; i=1: 1*0 + 100 + 0 + 1 = 101.
	if res.Outputs["out"].At(0) != 4 || res.Outputs["out"].At(1) != 101 {
		t.Errorf("ops = %v", res.Outputs["out"].Data())
	}
}

func TestAccumulateBeforeDefinitionFails(t *testing.T) {
	src := `
kernel acc {
  input a : [N]
  out[i] += a[i]
  output out[i]
}
`
	k := mustParse(t, src)
	_, err := k.Run(Binding{Tensors: map[string]*tensor.Tensor{"a": tensor.New(2)}})
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("accumulate-before-define must fail, got %v", err)
	}
}

func TestBareTensorUseFails(t *testing.T) {
	src := `
kernel bare {
  input a : [N]
  input b : [N]
  out = a + b[i]
  output out[i]
}
`
	k := mustParse(t, src)
	bind := Binding{Tensors: map[string]*tensor.Tensor{
		"a": tensor.New(2), "b": tensor.New(2)}}
	if _, err := k.Run(bind); err == nil {
		t.Error("bare tensor reference must fail")
	}
}

func TestSpecializedShapes(t *testing.T) {
	k := mustParse(t, axpySrc)
	res, err := k.Run(Binding{Tensors: map[string]*tensor.Tensor{
		"x": tensor.New(3), "y": tensor.New(3)}})
	if err != nil {
		t.Fatal(err)
	}
	shapes := SpecializedShapes(res).Tensors
	if len(shapes["out"]) != 1 || shapes["out"][0] != 3 {
		t.Errorf("shapes = %v", shapes)
	}
}

func TestLexerNumbersAndEOF(t *testing.T) {
	toks, err := NewLexer("1.5 2e3 .25 7").Lex()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1.5", "2e3", ".25", "7"}
	for i, w := range want {
		if toks[i].Text != w || toks[i].Kind != TokNumber {
			t.Errorf("token %d = %v, want number %q", i, toks[i], w)
		}
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestRedefinitionReplacesTensor(t *testing.T) {
	src := `
kernel redef {
  input a : [N]
  out = a[i]
  out = a[i] * 10
  output out[i]
}
`
	k := mustParse(t, src)
	res, err := k.Run(Binding{Tensors: map[string]*tensor.Tensor{
		"a": tensor.FromData([]float64{2}, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["out"].At(0) != 20 {
		t.Errorf("redefinition = %g, want 20", res.Outputs["out"].At(0))
	}
}
