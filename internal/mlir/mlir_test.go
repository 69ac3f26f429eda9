package mlir

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// buildFunc creates a builtin.func whose entry block takes the inputs and
// returns (op, entry block, builder positioned in the entry block).
func buildFunc(b *Builder, name string, inputs ...Type) (*Op, *Block, *Builder) {
	op := b.CreateWithRegions("builtin.func", nil, nil, map[string]Attribute{"sym_name": StringAttr(name)}, 1)
	entry := op.Regions[0].Entry()
	for i, in := range inputs {
		entry.AddArg(b.ctx, in, fmt.Sprintf("arg%d", i))
	}
	return op, entry, NewBuilder(b.ctx, entry)
}

// ret emits builtin.return.
func ret(b *Builder, vals ...*Value) *Op {
	return b.Create("builtin.return", vals, nil, nil)
}

func TestContextDialectRegistration(t *testing.T) {
	ctx := NewContext()
	d := ctx.RegisterDialect("teil")
	if again := ctx.RegisterDialect("teil"); again != d {
		t.Error("re-registering a dialect must return the same instance")
	}
	names := ctx.DialectNames()
	if len(names) != 2 || names[0] != "builtin" || names[1] != "teil" {
		t.Errorf("DialectNames = %v, want [builtin teil]", names)
	}
}

func TestOpRegistrationQualifiesName(t *testing.T) {
	ctx := NewContext()
	d := ctx.RegisterDialect("x")
	d.RegisterOp(&OpInfo{Name: "foo", NumResults: 1})
	info := ctx.lookupOp("x", "foo")
	if info == nil || info.Name != "x.foo" {
		t.Fatalf("OpInfo name = %+v, want qualified x.foo", info)
	}
}

func TestModuleBuildAndVerify(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "test")
	b := NewBuilder(ctx, m.Body())
	_, _, fb := buildFunc(b, "f", F64())
	c := fb.ConstantFloat(2.0, F64())
	ret(fb, c)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyRejectsUseBeforeDef(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "bad")
	b := NewBuilder(ctx, m.Body())
	_, _, fb := buildFunc(b, "f")
	// Manufacture a value that was never defined in scope.
	orphanOp := &Op{ctx: ctx, Dialect: "builtin", Name: "constant"}
	orphan := &Value{id: ctx.newID(), typ: F64(), def: orphanOp}
	fb.Create("builtin.return", []*Value{orphan}, nil, nil)
	if err := m.Verify(); err == nil {
		t.Fatal("Verify must reject use of undefined value")
	}
}

func TestVerifyRejectsMisplacedTerminator(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "bad")
	b := NewBuilder(ctx, m.Body())
	_, _, fb := buildFunc(b, "f")
	ret(fb)
	fb.ConstantFloat(1, F64()) // op after terminator
	err := m.Verify()
	if err == nil {
		t.Fatal("Verify must reject terminator before last op")
	}
	if !strings.Contains(err.Error(), "terminator") {
		t.Errorf("error %v should mention terminator", err)
	}
}

func TestVerifyArity(t *testing.T) {
	ctx := NewContext()
	d := ctx.RegisterDialect("x")
	d.RegisterOp(&OpInfo{Name: "pair", MinOperands: 2, MaxOperands: 2, NumResults: 1})
	m := NewModule(ctx, "m")
	b := NewBuilder(ctx, m.Body())
	_, _, fb := buildFunc(b, "f")
	v := fb.ConstantFloat(1, F64())
	fb.Create("x.pair", []*Value{v}, []Type{F64()}, nil) // one operand, wants two
	ret(fb)
	if err := m.Verify(); err == nil {
		t.Fatal("Verify must reject wrong operand arity")
	}
}

func TestVerifySemanticHook(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "m")
	b := NewBuilder(ctx, m.Body())
	// builtin.constant without a value attribute must fail.
	op := b.Create("builtin.constant", nil, []Type{F64()}, nil)
	_ = op
	if err := m.Verify(); err == nil {
		t.Fatal("builtin.constant without value must fail verification")
	}
}

func TestPrinterDeterministic(t *testing.T) {
	build := func() *Module {
		ctx := NewContext()
		m := NewModule(ctx, "p")
		b := NewBuilder(ctx, m.Body())
		_, _, fb := buildFunc(b, "f", F64(), F64())
		x := fb.ConstantFloat(1.5, F64())
		y := fb.Create("builtin.constant", nil, []Type{Index()}, map[string]Attribute{"value": IntAttr(3)}).Result(0)
		op := fb.Create("builtin.call", []*Value{x, y}, []Type{F64()},
			map[string]Attribute{"callee": StringAttr("g"), "zeta": IntAttr(1), "alpha": IntAttr(2)})
		ret(fb, op.Result(0))
		return m
	}
	a, b := build().String(), build().String()
	if a != b {
		t.Fatalf("printer output is nondeterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, `"builtin.func"`) || !strings.Contains(a, `alpha = 2, callee = "g", zeta = 1`) {
		t.Errorf("unexpected printed form:\n%s", a)
	}
}

func TestWalkAndCount(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "w")
	b := NewBuilder(ctx, m.Body())
	_, _, fb := buildFunc(b, "f")
	fb.ConstantFloat(1, F64())
	fb.ConstantFloat(2, F64())
	ret(fb)
	if got := m.CountOps("builtin.constant"); got != 2 {
		t.Errorf("CountOps(constant) = %d, want 2", got)
	}
	n := 0
	m.Walk(func(*Op) { n++ })
	// module + func + 2 constants + return
	if n != 5 {
		t.Errorf("Walk visited %d ops, want 5", n)
	}
}

func TestPassManagerVerifiesBetweenPasses(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "pm")
	pm := NewPassManager().Add(PassFunc{PassName: "break-it", Fn: func(m *Module) error {
		b := NewBuilder(ctx, m.Body())
		b.Create("builtin.constant", nil, []Type{F64()}, nil) // invalid: no value
		return nil
	}})
	if err := pm.Run(m); err == nil {
		t.Fatal("PassManager must fail verification after a breaking pass")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		t    Type
		want string
	}{
		{F64(), "f64"},
		{FloatType{Width: 16, BF: true}, "bf16"},
		{Index(), "index"},
		{TensorOf(F64(), 4, 8), "tensor<4x8xf64>"},
		{MemRefOf(F32(), "hbm", 128), `memref<128xf32, "hbm">`},
		{StreamType{Elem: F32(), Depth: 16}, "stream<f32, 16>"},
		{TensorType{Shape: []int{-1, 3}, Elem: F64()}, "tensor<?x3xf64>"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%T String = %q, want %q", c.t, got, c.want)
		}
	}
}

func TestTypesEqualProperty(t *testing.T) {
	// Property: type equality is structural, by the canonical String form,
	// so TensorOf(elem, dims...) equals itself and differs when any dim
	// changes.
	f := func(a, b uint8) bool {
		da, db := int(a%32)+1, int(b%32)+1
		t1 := TensorOf(F64(), da, db)
		t2 := TensorOf(F64(), da, db)
		t3 := TensorOf(F64(), da, db+1)
		return t1.String() == t2.String() && t1.String() != t3.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrHelpers(t *testing.T) {
	attrs := map[string]Attribute{
		"i": IntAttr(7), "s": StringAttr("x"), "b": BoolAttr(true), "f": FloatAttr(2.5),
	}
	if GetInt(attrs, "i", 0) != 7 || GetInt(attrs, "missing", 9) != 9 {
		t.Error("GetInt failed")
	}
	if GetString(attrs, "s", "") != "x" || GetString(attrs, "missing", "d") != "d" {
		t.Error("GetString failed")
	}
	if !GetBool(attrs, "b", false) || GetBool(attrs, "missing", true) != true {
		t.Error("GetBool failed")
	}
}
