package ekl

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"everest/internal/mlir"
	"everest/internal/tensor"
)

func mustParse(t *testing.T, src string) *Kernel {
	t.Helper()
	k, err := ParseKernel(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return k
}

func run(t *testing.T, src string, b Binding) *Result {
	t.Helper()
	k := mustParse(t, src)
	res, err := k.Run(b)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestLexerBasics(t *testing.T) {
	toks, err := NewLexer("kernel k { a = b[i] + 1.5e-3 # comment\n }").Lex()
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		texts = append(texts, tok.Text)
	}
	want := []string{"kernel", "k", "{", "a", "=", "b", "[", "i", "]", "+", "1.5e-3", "}", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens %v, want %v", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
}

func TestLexerRejectsBadChar(t *testing.T) {
	if _, err := NewLexer("a = b $ c").Lex(); err == nil {
		t.Error("lexer must reject '$'")
	}
}

func TestLexerOperators(t *testing.T) {
	toks, err := NewLexer("<= >= == != += = < >").Lex()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"<=", ">=", "==", "!=", "+=", "=", "<", ">"}
	for i, w := range want {
		if toks[i].Text != w || toks[i].Kind != TokOp {
			t.Errorf("token %d = %v, want op %q", i, toks[i], w)
		}
	}
}

const axpySrc = `
kernel axpy {
  input x : [N]
  input y : [N]
  param alpha = 2.0
  out = alpha * x[i] + y[i]
  output out[i]
}
`

func TestAxpy(t *testing.T) {
	x := tensor.FromData([]float64{1, 2, 3}, 3)
	y := tensor.FromData([]float64{10, 20, 30}, 3)
	res := run(t, axpySrc, Binding{Tensors: map[string]*tensor.Tensor{"x": x, "y": y}})
	out := res.Outputs["out"]
	want := []float64{12, 24, 36}
	for i, w := range want {
		if out.At(i) != w {
			t.Fatalf("out = %v, want %v", out.Data(), want)
		}
	}
	if res.Dims["N"] != 3 {
		t.Errorf("symbolic dim N = %d, want 3", res.Dims["N"])
	}
}

func TestParamDefaultAndOverride(t *testing.T) {
	x := tensor.FromData([]float64{1}, 1)
	y := tensor.FromData([]float64{0}, 1)
	bind := Binding{Tensors: map[string]*tensor.Tensor{"x": x, "y": y},
		Scalars: map[string]float64{"alpha": 5}}
	res := run(t, axpySrc, bind)
	if res.Outputs["out"].At(0) != 5 {
		t.Errorf("alpha override failed: %v", res.Outputs["out"].Data())
	}
}

func TestMatMulKernel(t *testing.T) {
	src := `
kernel matmul {
  input a : [M, K]
  input b : [K, N]
  c = sum(k) a[i, k] * b[k, j]
  output c[i, j]
}
`
	rng := rand.New(rand.NewSource(7))
	a := tensor.Random(rng, -1, 1, 4, 3)
	bm := tensor.Random(rng, -1, 1, 3, 5)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"a": a, "b": bm}})
	want := tensor.MustEinsum("ij,jk->ik", a, bm)
	if tensor.MaxAbsDiff(res.Outputs["c"], want) > 1e-12 {
		t.Error("EKL matmul disagrees with tensor.MatMul")
	}
}

func TestBroadcasting(t *testing.T) {
	// v has no i index: broadcast along i.
	src := `
kernel bcast {
  input m : [I, J]
  input v : [J]
  out = m[i, j] * v[j]
  output out[i, j]
}
`
	m := tensor.FromData([]float64{1, 2, 3, 4}, 2, 2)
	v := tensor.FromData([]float64{10, 100}, 2)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"m": m, "v": v}})
	if res.Outputs["out"].At(1, 1) != 400 {
		t.Errorf("broadcast result wrong: %v", res.Outputs["out"].Data())
	}
}

func TestSelectAndComparison(t *testing.T) {
	src := `
kernel clip {
  input x : [N]
  param lo = 0.0
  out = select(x[i] < lo, lo, x[i])
  output out[i]
}
`
	x := tensor.FromData([]float64{-2, 3, -0.5, 7}, 4)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"x": x}})
	want := []float64{0, 3, 0, 7}
	for i, w := range want {
		if res.Outputs["out"].At(i) != w {
			t.Fatalf("clip = %v, want %v", res.Outputs["out"].Data(), want)
		}
	}
}

func TestSubscriptedSubscripts(t *testing.T) {
	// Gather: out[i] = table[sel[i]].
	src := `
kernel gather {
  input table : [T]
  input sel : [N] index
  out = table[sel[i]]
  output out[i]
}
`
	table := tensor.FromData([]float64{10, 20, 30}, 3)
	sel := tensor.FromData([]float64{2, 0, 1, 2}, 4)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"table": table, "sel": sel}})
	want := []float64{30, 10, 20, 30}
	for i, w := range want {
		if res.Outputs["out"].At(i) != w {
			t.Fatalf("gather = %v, want %v", res.Outputs["out"].Data(), want)
		}
	}
}

func TestIndexReassociation(t *testing.T) {
	// Stencil with index arithmetic a[i+1] - a[i].
	src := `
kernel diff {
  input a : [N]
  input small : [M]
  d = a[i+1] - a[i]
  output d[i]
}
`
	// Bare subscripts constrain extents, so the stencil accesses use index
	// arithmetic (i+1, i+0) and the iteration domain is bound by w.
	srcOK := `
kernel diff {
  input a : [N]
  input w : [M]
  d = (a[i+1] - a[i+0]) * w[i]
  output d[i]
}
`
	_ = src
	a := tensor.FromData([]float64{1, 4, 9, 16}, 4)
	w := tensor.FromData([]float64{1, 1, 1}, 3)
	res := run(t, srcOK, Binding{Tensors: map[string]*tensor.Tensor{"a": a, "w": w}})
	want := []float64{3, 5, 7}
	for i, v := range want {
		if res.Outputs["d"].At(i) != v {
			t.Fatalf("diff = %v, want %v", res.Outputs["d"].Data(), want)
		}
	}
}

func TestPairConstruction(t *testing.T) {
	// i_T = [j[x], j[x]+1] builds an (X, 2) window tensor.
	src := `
kernel pair {
  input j : [X] index
  input v : [V]
  i_T = [j[x], j[x]+1]
  out = v[i_T[x, t]]
  output out[x, t]
}
`
	j := tensor.FromData([]float64{0, 2}, 2)
	v := tensor.FromData([]float64{5, 6, 7, 8}, 4)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"j": j, "v": v}})
	out := res.Outputs["out"]
	if out.Rank() != 2 || out.Shape()[1] != 2 {
		t.Fatalf("pair result shape %v, want (2,2)", out.Shape())
	}
	if out.At(0, 0) != 5 || out.At(0, 1) != 6 || out.At(1, 0) != 7 || out.At(1, 1) != 8 {
		t.Errorf("pair gather = %v", out.Data())
	}
}

func TestInPlaceAndAccumulate(t *testing.T) {
	src := `
kernel acc {
  input x : [N]
  out[i] = x[i]
  out[i] += x[i]
  output out[i]
}
`
	x := tensor.FromData([]float64{1, 2}, 2)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"x": x}})
	if res.Outputs["out"].At(1) != 4 {
		t.Errorf("accumulate failed: %v", res.Outputs["out"].Data())
	}
}

func TestInPlaceLiteralSubscript(t *testing.T) {
	src := `
kernel inplace {
  input x : [N]
  out[i] = x[i]
  out[0] = 99
  output out[i]
}
`
	x := tensor.FromData([]float64{1, 2, 3}, 3)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"x": x}})
	got := res.Outputs["out"]
	if got.At(0) != 99 || got.At(2) != 3 {
		t.Errorf("in-place literal write failed: %v", got.Data())
	}
}

func TestOutputOrderDeclaration(t *testing.T) {
	src := `
kernel order {
  input m : [I, J]
  out = m[i, j]
  output out[j, i]
}
`
	m := tensor.FromData([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"m": m}})
	out := res.Outputs["out"]
	if out.Shape()[0] != 3 || out.Shape()[1] != 2 {
		t.Fatalf("output order shape %v, want [3 2]", out.Shape())
	}
	if out.At(2, 1) != m.At(1, 2) {
		t.Error("output reordering produced wrong transpose")
	}
}

// rrtmgSrc is the paper's Fig. 3 kernel: the major-absorber optical depth of
// the RRTMG gas-optics scheme, written in EKL.
const rrtmgSrc = `
kernel tau_major {
  input p           : [X]
  input bnd_to_flav : [2, NBND] index
  input j_T         : [X] index
  input j_p         : [X] index
  input j_eta       : [NFLAV, X] index
  input r_mix       : [NFLAV, X, E]
  input f_major     : [NFLAV, X, T, PP, E]
  input k_major     : [NT, NP, NETA, G]
  param strato = 9600.0
  iparam bnd
  i_strato = select(p[x] <= strato, 1, 0)
  i_flav[x] = bnd_to_flav[i_strato[x], bnd]
  tau_abs = sum(t, pp, e) r_mix[i_flav[x], x, e]
          * f_major[i_flav[x], x, t, pp, e]
          * k_major[j_T[x]+t, j_p[x]+i_strato[x]+pp, j_eta[i_flav[x], x]+e, g]
  output tau_abs[x, g]
}
`

// rrtmgBinding builds a random consistent binding for the Fig. 3 kernel.
func rrtmgBinding(seed int64, nx, ng int) Binding {
	rng := rand.New(rand.NewSource(seed))
	const (
		nbnd, nflav     = 4, 3
		nT, nP, nEta    = 6, 8, 5
		extT, extP, ext = 2, 2, 2
	)
	p := tensor.New(nx)
	for i := 0; i < nx; i++ {
		p.Set(rng.Float64()*20000, i)
	}
	intTensor := func(max int, shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		for i := range t.Data() {
			t.Data()[i] = float64(rng.Intn(max))
		}
		return t
	}
	return Binding{
		Tensors: map[string]*tensor.Tensor{
			"p":           p,
			"bnd_to_flav": intTensor(nflav, 2, nbnd),
			"j_T":         intTensor(nT-extT, nx),
			"j_p":         intTensor(nP-extP-1, nx),
			"j_eta":       intTensor(nEta-ext, nflav, nx),
			"r_mix":       tensor.Random(rng, 0, 1, nflav, nx, ext),
			"f_major":     tensor.Random(rng, 0, 1, nflav, nx, extT, extP, ext),
			"k_major":     tensor.Random(rng, 0, 1, nT, nP, nEta, ng),
		},
		Scalars: map[string]float64{"bnd": 1},
	}
}

// rrtmgReference is the hand-written loop-nest version of the same kernel:
// the "~200 lines of Fortran" shape that Fig. 3 compresses. It is the
// numerical oracle for experiment E1.
func rrtmgReference(b Binding) *tensor.Tensor {
	p := b.Tensors["p"]
	bndToFlav := b.Tensors["bnd_to_flav"]
	jT := b.Tensors["j_T"]
	jp := b.Tensors["j_p"]
	jEta := b.Tensors["j_eta"]
	rMix := b.Tensors["r_mix"]
	fMajor := b.Tensors["f_major"]
	kMajor := b.Tensors["k_major"]
	strato := 9600.0
	bnd := int(b.Scalars["bnd"])

	nx := p.Shape()[0]
	ng := kMajor.Shape()[3]
	extT := fMajor.Shape()[2]
	extP := fMajor.Shape()[3]
	extE := fMajor.Shape()[4]

	out := tensor.New(nx, ng)
	for x := 0; x < nx; x++ {
		iStrato := 0
		if p.At(x) <= strato {
			iStrato = 1
		}
		iFlav := int(bndToFlav.At(iStrato, bnd))
		for g := 0; g < ng; g++ {
			acc := 0.0
			for t := 0; t < extT; t++ {
				for pp := 0; pp < extP; pp++ {
					for e := 0; e < extE; e++ {
						acc += rMix.At(iFlav, x, e) *
							fMajor.At(iFlav, x, t, pp, e) *
							kMajor.At(int(jT.At(x))+t,
								int(jp.At(x))+iStrato+pp,
								int(jEta.At(iFlav, x))+e, g)
					}
				}
			}
			out.Set(acc, x, g)
		}
	}
	return out
}

func TestRRTMGMatchesReference(t *testing.T) {
	k := mustParse(t, rrtmgSrc)
	for seed := int64(1); seed <= 5; seed++ {
		b := rrtmgBinding(seed, 16, 8)
		res, err := k.Run(b)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := rrtmgReference(b)
		if d := tensor.MaxAbsDiff(res.Outputs["tau_abs"], want); d > 1e-12 {
			t.Fatalf("seed %d: EKL kernel deviates from reference by %g", seed, d)
		}
	}
}

func TestRRTMGCompactness(t *testing.T) {
	// The paper claims the Fig. 3 EKL snippet replaces ~200 lines of
	// Fortran. Our EKL kernel body must stay within the same order of
	// compactness: a handful of statements.
	k := mustParse(t, rrtmgSrc)
	if n := k.SourceLines(); n > 10 {
		t.Errorf("RRTMG kernel has %d statements; expected Fig. 3-like compactness (<=10)", n)
	}
}

func TestRunErrors(t *testing.T) {
	k := mustParse(t, axpySrc)
	// Missing tensor.
	if _, err := k.Run(Binding{}); err == nil {
		t.Error("missing input must error")
	}
	// Wrong rank.
	bad := Binding{Tensors: map[string]*tensor.Tensor{
		"x": tensor.New(2, 2), "y": tensor.New(2, 2)}}
	if _, err := k.Run(bad); err == nil {
		t.Error("rank mismatch must error")
	}
	// Inconsistent symbolic dims.
	bad2 := Binding{Tensors: map[string]*tensor.Tensor{
		"x": tensor.New(2), "y": tensor.New(3)}}
	if _, err := k.Run(bad2); err == nil {
		t.Error("symbolic dim mismatch must error")
	}
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no outputs", `kernel k { input a : [N] b = a[i] }`},
		{"unassigned output", `kernel k { input a : [N] b = a[i] output c }`},
		{"assign to input", `kernel k { input a : [N] a = a[i] output a }`},
		{"redeclared name", `kernel k { input a : [N] input a : [M] b = a[i] output b }`},
	}
	for _, c := range cases {
		k, err := ParseKernel(c.src)
		if err != nil {
			continue // parse-level rejection also acceptable
		}
		if err := k.Check(); err == nil {
			t.Errorf("%s: Check must fail", c.name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"kernel {",
		"kernel k { input a [N] output a }",
		"kernel k { a = output a }",
		"kernel k { input a : [n] output a }", // lowercase symbolic dim
		"kernel k { input a : [0] output a }",
		"kernel k",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestUnboundIndexError(t *testing.T) {
	src := `
kernel k {
  input a : [N]
  out = a[i] + q
  output out
}
`
	k := mustParse(t, src)
	_, err := k.Run(Binding{Tensors: map[string]*tensor.Tensor{"a": tensor.New(2)}})
	if err == nil || !strings.Contains(err.Error(), "extent") {
		t.Errorf("unbound index should fail extent inference, got %v", err)
	}
}

func TestOutOfRangeGather(t *testing.T) {
	src := `
kernel k {
  input a : [N]
  input sel : [M] index
  out = a[sel[i]]
  output out[i]
}
`
	k := mustParse(t, src)
	b := Binding{Tensors: map[string]*tensor.Tensor{
		"a":   tensor.New(2),
		"sel": tensor.FromData([]float64{0, 5}, 2), // 5 out of range
	}}
	_, err := k.Run(b)
	if err == nil {
		t.Fatal("out-of-range gather must error")
	}
	// Lowering evaluates the gather, so it reports the same error.
	if _, _, lerr := Lower(k, b); lerr == nil || lerr.Error() != err.Error() {
		t.Errorf("Lower error %v, Run error %v", lerr, err)
	}
}

func TestNonIntegerSubscript(t *testing.T) {
	src := `
kernel k {
  input a : [N]
  input w : [N]
  out = a[w[i]]
  output out[i]
}
`
	k := mustParse(t, src)
	b := Binding{Tensors: map[string]*tensor.Tensor{
		"a": tensor.New(3),
		"w": tensor.FromData([]float64{0.5, 1, 2}, 3),
	}}
	_, err := k.Run(b)
	if err == nil {
		t.Fatal("non-integer subscript must error")
	}
	// Lowering evaluates the gather, so it reports the same error.
	if _, _, lerr := Lower(k, b); lerr == nil || lerr.Error() != err.Error() {
		t.Errorf("Lower error %v, Run error %v", lerr, err)
	}
}

func TestLowerProducesVerifiedModule(t *testing.T) {
	k := mustParse(t, rrtmgSrc)
	b := rrtmgBinding(1, 8, 4)
	m, res, err := Lower(k, b)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || m == nil {
		t.Fatal("nil results")
	}
	if m.CountOps("ekl.einsum") == 0 {
		t.Error("expected at least one ekl.einsum")
	}
	if m.CountOps("ekl.select") == 0 {
		t.Error("expected ekl.select for the i_strato statement")
	}
	if m.CountOps("ekl.gather") == 0 {
		t.Error("expected ekl.gather for the subscripted subscripts")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("module must verify: %v", err)
	}
}

func TestLoweringPipelineToAffine(t *testing.T) {
	k := mustParse(t, rrtmgSrc)
	b := rrtmgBinding(2, 8, 4)
	m, _, err := Lower(k, b)
	if err != nil {
		t.Fatal(err)
	}
	pm := mlir.NewPassManager().Add(LowerToTeIL(), LowerToAffine())
	if err := pm.Run(m); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if m.CountOps("teil.load") == 0 {
		t.Error("teil lowering produced no loads")
	}
	if m.CountOps("affine.for") == 0 {
		t.Error("affine lowering produced no loops")
	}
	// The einsum's loop nest must include its reduction dimensions: x, g
	// plus t, pp, e = 5 loops for the tau statement alone.
	if got := m.CountOps("affine.for"); got < 5 {
		t.Errorf("affine.for count = %d, want >= 5", got)
	}
}

func TestEKLDeterminismProperty(t *testing.T) {
	// Property: running the same kernel twice on the same binding yields
	// bit-identical outputs (EKL is deterministic).
	k := mustParse(t, rrtmgSrc)
	f := func(seed int64) bool {
		b := rrtmgBinding(seed, 8, 4)
		r1, err1 := k.Run(b)
		r2, err2 := k.Run(b)
		if err1 != nil || err2 != nil {
			return false
		}
		return tensor.MaxAbsDiff(r1.Outputs["tau_abs"], r2.Outputs["tau_abs"]) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestSumBodyPrecedence(t *testing.T) {
	// sum binds the multiplicative term only: sum(i) a[i]*b[i] + c = dot+c.
	src := `
kernel dotplus {
  input a : [N]
  input b : [N]
  param c = 10.0
  out = sum(i) a[i] * b[i] + c
  output out
}
`
	a := tensor.FromData([]float64{1, 2}, 2)
	bv := tensor.FromData([]float64{3, 4}, 2)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"a": a, "b": bv}})
	if got := res.Outputs["out"].Item(); got != 21 {
		t.Errorf("sum precedence: got %g, want 21 (= 11 + 10)", got)
	}
}

func TestScalarOutput(t *testing.T) {
	src := `
kernel norm2 {
  input v : [N]
  out = sum(i) v[i] * v[i]
  output out
}
`
	v := tensor.FromData([]float64{3, 4}, 2)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"v": v}})
	if res.Outputs["out"].Rank() != 0 || res.Outputs["out"].Item() != 25 {
		t.Errorf("scalar output = %v", res.Outputs["out"])
	}
}

func TestMathBuiltins(t *testing.T) {
	src := `
kernel fns {
  input x : [N]
  out = max(exp(log(x[i])), sqrt(x[i] * x[i])) + min(pow(x[i], 2), abs(-x[i])) + floor(x[i])
  output out[i]
}
`
	x := tensor.FromData([]float64{1.5}, 1)
	res := run(t, src, Binding{Tensors: map[string]*tensor.Tensor{"x": x}})
	want := 1.5 + 1.5 + 1.0 // max(1.5,1.5) + min(2.25,1.5) + floor(1.5)
	if math.Abs(res.Outputs["out"].At(0)-want) > 1e-12 {
		t.Errorf("builtins = %g, want %g", res.Outputs["out"].At(0), want)
	}
}
