package dialects

import (
	"strings"
	"testing"

	"everest/internal/mlir"
)

func newCtx() *mlir.Context {
	ctx := mlir.NewContext()
	RegisterAll(ctx)
	return ctx
}

func TestRegisterAllInstallsEveryDialect(t *testing.T) {
	ctx := newCtx()
	want := []string{"affine", "builtin", "cfdlang", "dfg", "ekl",
		"jabbah", "olympus", "teil"}
	got := ctx.DialectNames()
	if len(got) != len(want) {
		t.Fatalf("dialects = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dialects = %v, want %v", got, want)
		}
	}
}

// buildIn returns a module + builder positioned inside a function body.
func buildIn(t *testing.T) (*mlir.Module, *mlir.Builder) {
	t.Helper()
	ctx := newCtx()
	m := mlir.NewModule(ctx, "t")
	b := mlir.NewBuilder(ctx, m.Body())
	fn := b.CreateWithRegions("builtin.func", nil, nil, map[string]mlir.Attribute{"sym_name": mlir.StringAttr("f")}, 1)
	return m, mlir.NewBuilder(ctx, fn.Regions[0].Entry())
}

func TestEinsumVerifier(t *testing.T) {
	m, fb := buildIn(t)
	v := fb.ConstantFloat(0, mlir.TensorOf(mlir.F64(), 2, 2))
	// Missing spec.
	fb.Create("ekl.einsum", []*mlir.Value{v}, []mlir.Type{mlir.F64()}, nil)
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "spec") {
		t.Errorf("einsum without spec must fail, got %v", err)
	}

	m2, fb2 := buildIn(t)
	v2 := fb2.ConstantFloat(0, mlir.TensorOf(mlir.F64(), 2, 2))
	fb2.Create("ekl.einsum", []*mlir.Value{v2}, []mlir.Type{mlir.F64()},
		map[string]mlir.Attribute{"spec": mlir.StringAttr("ab,bc->ac")}) // 2 inputs, 1 operand
	if err := m2.Verify(); err == nil {
		t.Error("einsum operand/spec mismatch must fail")
	}

	m3, fb3 := buildIn(t)
	v3 := fb3.ConstantFloat(0, mlir.TensorOf(mlir.F64(), 2, 2))
	fb3.Create("ekl.einsum", []*mlir.Value{v3}, []mlir.Type{mlir.F64()},
		map[string]mlir.Attribute{"spec": mlir.StringAttr("ab->a")})
	if err := m3.Verify(); err != nil {
		t.Errorf("valid einsum rejected: %v", err)
	}

	m4, fb4 := buildIn(t)
	v4 := fb4.ConstantFloat(0, mlir.TensorOf(mlir.F64(), 2, 2))
	fb4.Create("ekl.einsum", []*mlir.Value{v4}, []mlir.Type{mlir.F64()},
		map[string]mlir.Attribute{"spec": mlir.StringAttr("noarrow")})
	if err := m4.Verify(); err == nil {
		t.Error("einsum spec without arrow must fail")
	}
}

func TestTeilLoopVerifier(t *testing.T) {
	m, fb := buildIn(t)
	loop := fb.CreateWithRegions("teil.loop", nil, nil, map[string]mlir.Attribute{
		"indices": mlir.StringsAttr("i", "j"),
		"bounds":  mlir.IntsAttr(4), // length mismatch
	}, 1)
	_ = loop
	if err := m.Verify(); err == nil || !strings.Contains(err.Error(), "bounds") {
		t.Errorf("teil.loop index/bound mismatch must fail, got %v", err)
	}

	m2, fb2 := buildIn(t)
	loop2 := fb2.CreateWithRegions("teil.loop", nil, nil, map[string]mlir.Attribute{
		"indices": mlir.StringsAttr("i"),
		"bounds":  mlir.IntsAttr(4),
	}, 1)
	loop2.Regions[0].Entry().AddArg(m2.Context(), mlir.Index(), "i")
	if err := m2.Verify(); err != nil {
		t.Errorf("valid teil.loop rejected: %v", err)
	}
}

func TestAffineForVerifier(t *testing.T) {
	m, fb := buildIn(t)
	fb.CreateWithRegions("affine.for", nil, nil, map[string]mlir.Attribute{
		"lower": mlir.IntAttr(5), "upper": mlir.IntAttr(2), // inverted
	}, 1)
	if err := m.Verify(); err == nil {
		t.Error("inverted affine.for bounds must fail")
	}

	m2, fb2 := buildIn(t)
	forOp := fb2.CreateWithRegions("affine.for", nil, nil, map[string]mlir.Attribute{
		"lower": mlir.IntAttr(0), "upper": mlir.IntAttr(8),
	}, 1)
	forOp.Regions[0].Entry().AddArg(m2.Context(), mlir.Index(), "iv")
	if err := m2.Verify(); err != nil {
		t.Errorf("valid affine.for rejected: %v", err)
	}

	m3, fb3 := buildIn(t)
	fb3.CreateWithRegions("affine.for", nil, nil, map[string]mlir.Attribute{
		"lower": mlir.IntAttr(0), "upper": mlir.IntAttr(8),
	}, 1) // no induction arg
	if err := m3.Verify(); err == nil {
		t.Error("affine.for without induction argument must fail")
	}
}

func TestDFGNodeVerifier(t *testing.T) {
	m, fb := buildIn(t)
	fb.Create("dfg.node", nil, []mlir.Type{mlir.F64()}, nil) // missing fn
	if err := m.Verify(); err == nil {
		t.Error("dfg.node without fn must fail")
	}

	m2, fb2 := buildIn(t)
	fb2.Create("dfg.node", nil, []mlir.Type{mlir.F64()}, map[string]mlir.Attribute{
		"fn": mlir.StringAttr("projection"), "offloaded": mlir.BoolAttr(true),
	}) // offloaded without path
	if err := m2.Verify(); err == nil || !strings.Contains(err.Error(), "path") {
		t.Errorf("offloaded node without path must fail, got %v", err)
	}

	m3, fb3 := buildIn(t)
	fb3.Create("dfg.node", nil, []mlir.Type{mlir.F64()}, map[string]mlir.Attribute{
		"fn": mlir.StringAttr("projection"), "offloaded": mlir.BoolAttr(true),
		"path": mlir.StringAttr("projection.cpp"),
	})
	if err := m3.Verify(); err != nil {
		t.Errorf("valid offloaded node rejected: %v", err)
	}
}

func TestOlympusVerifiers(t *testing.T) {
	m, fb := buildIn(t)
	fb.Create("olympus.plm", nil, []mlir.Type{mlir.MemRefOf(mlir.F64(), "plm", 8)},
		map[string]mlir.Attribute{"words": mlir.IntAttr(0), "width": mlir.IntAttr(64)})
	if err := m.Verify(); err == nil {
		t.Error("plm with zero words must fail")
	}

	m2, fb2 := buildIn(t)
	fb2.Create("olympus.bus", nil, []mlir.Type{mlir.StreamType{Elem: mlir.F64()}},
		map[string]mlir.Attribute{"width": mlir.IntAttr(512), "lanes": mlir.IntAttr(3)})
	if err := m2.Verify(); err == nil {
		t.Error("bus width not divisible by lanes must fail")
	}

	m3, fb3 := buildIn(t)
	fb3.Create("olympus.bus", nil, []mlir.Type{mlir.StreamType{Elem: mlir.F64()}},
		map[string]mlir.Attribute{"width": mlir.IntAttr(512), "lanes": mlir.IntAttr(4)})
	if err := m3.Verify(); err != nil {
		t.Errorf("valid bus rejected: %v", err)
	}
}

func TestJabbahAndCFDlangOps(t *testing.T) {
	m, fb := buildIn(t)
	a := fb.ConstantFloat(0, mlir.TensorOf(mlir.F32(), 2, 2))
	bT := fb.ConstantFloat(0, mlir.TensorOf(mlir.F32(), 2, 2))
	mmul := fb.Create("jabbah.matmul", []*mlir.Value{a, bT}, []mlir.Type{mlir.TensorOf(mlir.F32(), 2, 2)}, nil)
	fb.Create("jabbah.pool", []*mlir.Value{mmul.Result(0)},
		[]mlir.Type{mlir.TensorOf(mlir.F32(), 1, 1)},
		map[string]mlir.Attribute{"kind": mlir.StringAttr("max")})
	if err := m.Verify(); err != nil {
		t.Fatalf("jabbah ops rejected: %v", err)
	}

	m2, fb2 := buildIn(t)
	d := fb2.Create("cfdlang.decl", nil, []mlir.Type{mlir.TensorOf(mlir.F64(), 3, 3)},
		map[string]mlir.Attribute{"name": mlir.StringAttr("u")})
	mul := fb2.Create("cfdlang.mul", []*mlir.Value{d.Result(0), d.Result(0)},
		[]mlir.Type{mlir.TensorOf(mlir.F64(), 3, 3, 3, 3)}, nil)
	fb2.Create("cfdlang.contract", []*mlir.Value{mul.Result(0)},
		[]mlir.Type{mlir.TensorOf(mlir.F64(), 3, 3)},
		map[string]mlir.Attribute{"pairs": mlir.StringAttr("2 3")})
	if err := m2.Verify(); err != nil {
		t.Fatalf("cfdlang ops rejected: %v", err)
	}
}
