package mlir

import (
	"fmt"
	"strings"
	"testing"
)

// refVerify is the verifier before the visible set became one map with an
// undo log: it copies the whole visible set into every nested block.
// FuzzVerify holds Module.Verify to it.
func refVerify(m *Module) error {
	return refVerifyOp(m.op, make(map[*Value]bool))
}

func refVerifyOp(op *Op, visible map[*Value]bool) error {
	for i, operand := range op.Operands {
		if operand == nil {
			return &VerifyError{Op: op.FullName(), Err: fmt.Errorf("operand %d is nil", i)}
		}
		if !visible[operand] {
			return &VerifyError{Op: op.FullName(),
				Err: fmt.Errorf("operand %d (%%%s) used before definition", i, valueLabel(operand))}
		}
	}

	info := op.ctx.lookupOp(op.Dialect, op.Name)
	if info != nil {
		if err := checkArity(op, info); err != nil {
			return &VerifyError{Op: op.FullName(), Err: err}
		}
		if info.Verify != nil {
			if err := info.Verify(op); err != nil {
				return &VerifyError{Op: op.FullName(), Err: err}
			}
		}
	}

	for _, region := range op.Regions {
		for _, block := range region.Blocks {
			inner := make(map[*Value]bool, len(visible)+len(block.Args))
			for v := range visible {
				inner[v] = true
			}
			for _, a := range block.Args {
				inner[a] = true
			}
			for i, nested := range block.Ops {
				nestedInfo := nested.ctx.lookupOp(nested.Dialect, nested.Name)
				if nestedInfo != nil && nestedInfo.Terminator && i != len(block.Ops)-1 {
					return &VerifyError{Op: nested.FullName(),
						Err: fmt.Errorf("terminator is not the last op in its block")}
				}
				if err := refVerifyOp(nested, inner); err != nil {
					return err
				}
				for _, r := range nested.Results {
					inner[r] = true
				}
			}
		}
	}

	for _, r := range op.Results {
		visible[r] = true
	}
	return nil
}

// moduleGen builds a module from fuzz bytes. Operands are drawn from the
// values visible at the op, from every value built so far (which reaches
// values of finished nested blocks, of sibling blocks, and an op's own
// results inside its regions), or nil, and a block may list a value
// already in scope as its argument. Ops are registered (arity,
// semantic hooks, a terminator that may land mid-block) or not.
type moduleGen struct {
	data []byte
	ctx  *Context
	all  []*Value
	ops  []*Op
}

func (g *moduleGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *moduleGen) operand(visible []*Value) *Value {
	b := g.byte()
	switch {
	case b%16 == 0:
		return nil
	case b%16 <= 4 && len(g.all) > 0:
		return g.all[int(b/16)%len(g.all)]
	case len(visible) > 0:
		return visible[int(b/16)%len(visible)]
	}
	return nil
}

// fill appends ops to block until the bytes run out or a zero byte ends
// it; visible holds the values in scope at the block's op.
func (g *moduleGen) fill(block *Block, visible []*Value, depth int) {
	for _, a := range block.Args {
		visible = append(visible, a)
		g.all = append(g.all, a)
	}
	b := NewBuilder(g.ctx, block)
	for len(g.data) > 0 {
		kind := g.byte()
		if kind == 0 {
			return
		}
		var operands []*Value
		for range int(g.byte() % 4) {
			if len(g.all) > 0 {
				operands = append(operands, g.operand(visible))
			}
		}
		results := make([]Type, int(g.byte()%3))
		for i := range results {
			results[i] = F64()
		}
		regions := 0
		if depth < 3 {
			regions = int(g.byte() % 3)
		}
		if kind&0x80 == 0 {
			// Mostly give registered ops their arities, so that checks
			// past arity are reached.
			switch kind % 8 {
			case 1:
				results = results[:0:0]
				results = append(results, F64())
			case 2:
				operands = append(operands[:0:0], g.operand(visible))
				results = append(results[:0:0], F64())
			case 3:
				regions = 1
			}
		}
		var op *Op
		switch kind % 8 {
		case 0:
			op = b.Create("builtin.return", operands, nil, nil)
		case 1:
			op = b.Create("builtin.constant", nil, results, map[string]Attribute{"value": FloatAttr(1)})
		case 2:
			op = b.Create("builtin.unrealized_cast", operands, results, nil)
		case 3:
			op = b.CreateWithRegions("builtin.func", nil, nil, map[string]Attribute{"sym_name": StringAttr("f")}, regions)
		default:
			op = b.CreateWithRegions("test.op", operands, results, nil, regions)
		}
		g.ops = append(g.ops, op)
		g.all = append(g.all, op.Results...)
		for _, r := range op.Regions {
			for bi := range int(g.byte() % 3) {
				blk := r.Entry()
				if bi > 0 {
					blk = &Block{}
					r.Blocks = append(r.Blocks, blk)
				}
				for range int(g.byte() % 3) {
					// Malformed IR may list a value already in scope as
					// an argument; it must stay in scope after the block.
					if a := g.byte(); a%4 == 3 && len(visible) > 0 {
						blk.Args = append(blk.Args, visible[int(a/4)%len(visible)])
					} else {
						blk.AddArg(g.ctx, F64(), "")
					}
				}
				// Each block sees only what its op sees: visible is not
				// grown by a sibling block or by the op's own results.
				g.fill(blk, visible[:len(visible):len(visible)], depth+1)
			}
		}
		visible = append(visible, op.Results...)
	}
}

func genModule(data []byte) *Module {
	g := &moduleGen{data: data, ctx: NewContext()}
	m := NewModule(g.ctx, "fuzz")
	g.fill(m.Body(), nil, 0)
	// Rewire a few operands to any value at all, a later one included.
	for len(g.data) >= 3 && len(g.ops) > 0 && len(g.all) > 0 {
		op := g.ops[int(g.byte())%len(g.ops)]
		i, v := int(g.byte()), g.all[int(g.byte())%len(g.all)]
		if len(op.Operands) > 0 {
			op.Operands[i%len(op.Operands)] = v
		}
	}
	return m
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzVerify holds Module.Verify to the copying reference verifier on
// generated modules: the same accept or reject, and the same error text.
func FuzzVerify(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 4, 3, 2, 1, 1, 5, 1, 3, 9, 0})
	f.Add([]byte{4, 2, 3, 17, 1, 2, 1, 1, 2, 4, 1, 25, 0, 0, 5, 1, 3, 0})
	f.Add([]byte{3, 0, 0, 2, 2, 1, 4, 1, 12, 1, 0, 0, 1, 5, 2, 33, 41, 1, 0, 0, 0, 6, 1, 4, 0})
	f.Add([]byte{5, 0, 1, 2, 1, 0, 6, 1, 1, 0, 0, 1, 9, 3, 0, 0, 0, 4, 2, 3, 0})
	// A constant, an op whose one block lists the constant as its
	// argument, then a use of the constant after that op.
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 1, 1, 1, 3, 0, 4, 1, 5, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		m := genModule(data)
		got, want := m.Verify(), refVerify(m)
		if errText(got) != errText(want) {
			t.Fatalf("Verify = %v, reference = %v", got, want)
		}
	})
}

// scopeModule returns a module whose body holds one unregistered op with
// one region, the builder of that region's entry block, and the op.
func scopeModule() (*Module, *Builder, *Op) {
	ctx := NewContext()
	m := NewModule(ctx, "scope")
	op := NewBuilder(ctx, m.Body()).CreateWithRegions("test.outer", nil, []Type{F64()}, nil, 1)
	return m, NewBuilder(ctx, op.Regions[0].Entry()), op
}

func wantUseBeforeDef(t *testing.T, m *Module) {
	t.Helper()
	err := m.Verify()
	if err == nil || !strings.Contains(err.Error(), "used before definition") {
		t.Fatalf("Verify = %v, want a use before definition", err)
	}
	if errText(err) != errText(refVerify(m)) {
		t.Fatalf("Verify = %v, reference = %v", err, refVerify(m))
	}
}

// TestVerifyNestedValueNotVisibleAfterItsOp: a value defined in a nested
// block is out of scope after the op that holds the block.
func TestVerifyNestedValueNotVisibleAfterItsOp(t *testing.T) {
	m, inner, _ := scopeModule()
	x := inner.Create("test.def", nil, []Type{F64()}, nil).Result(0)
	NewBuilder(m.ctx, m.Body()).Create("test.use", []*Value{x}, nil, nil)
	wantUseBeforeDef(t, m)
}

// TestVerifySiblingBlockValueNotVisible: a value defined in a region's
// first block is out of scope in its second.
func TestVerifySiblingBlockValueNotVisible(t *testing.T) {
	m, inner, op := scopeModule()
	x := inner.Create("test.def", nil, []Type{F64()}, nil).Result(0)
	second := &Block{}
	op.Regions[0].Blocks = append(op.Regions[0].Blocks, second)
	NewBuilder(m.ctx, second).Create("test.use", []*Value{x}, nil, nil)
	wantUseBeforeDef(t, m)
}

// TestVerifyResultNotVisibleInOwnRegion: an op's result is out of scope
// inside the op's own regions.
func TestVerifyResultNotVisibleInOwnRegion(t *testing.T) {
	m, inner, op := scopeModule()
	inner.Create("test.use", []*Value{op.Result(0)}, nil, nil)
	wantUseBeforeDef(t, m)
}

// TestVerifyEnclosingValuesStayVisible is the control: a block argument
// and an enclosing block's earlier result are in scope in a nested block,
// and the enclosing value stays in scope after the nested block, also
// after a block that lists it as its own argument.
func TestVerifyEnclosingValuesStayVisible(t *testing.T) {
	ctx := NewContext()
	m := NewModule(ctx, "scope")
	body := NewBuilder(ctx, m.Body())
	x := body.Create("test.def", nil, []Type{F64()}, nil).Result(0)
	outer := body.CreateWithRegions("test.outer", []*Value{x}, nil, nil, 1)
	entry := outer.Regions[0].Entry()
	arg := entry.AddArg(ctx, F64(), "a")
	NewBuilder(ctx, entry).Create("test.use", []*Value{x, arg}, nil, nil)
	body.Create("test.use", []*Value{x}, nil, nil)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify = %v, want accepted", err)
	}
	// A block that lists x, already in scope, as its argument leaves x
	// in scope after it.
	again := body.CreateWithRegions("test.outer", nil, nil, nil, 1)
	again.Regions[0].Entry().Args = []*Value{x}
	body.Create("test.use", []*Value{x}, nil, nil)
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify = %v after a block re-lists x, want accepted", err)
	}
	// The block argument itself is out of scope after the block.
	body.Create("test.use", []*Value{arg}, nil, nil)
	wantUseBeforeDef(t, m)
}
