package mlir

import (
	"fmt"
)

// Value is an SSA value: either an op result or a block argument.
type Value struct {
	id   int
	typ  Type
	def  *Op    // defining op; nil for block arguments
	ownr *Block // owning block for block arguments; nil for op results
	idx  int    // result index or argument index
	name string // optional debug name (e.g. the EKL identifier)
}

// Type returns the value's type.
func (v *Value) Type() Type { return v.typ }

// SetName attaches a debug name used by the printer.
func (v *Value) SetName(n string) { v.name = n }

// Op is a generic operation: qualified name, operands, results, attributes,
// and nested regions.
type Op struct {
	ctx      *Context
	Dialect  string
	Name     string // unqualified
	Operands []*Value
	Results  []*Value
	Attrs    map[string]Attribute
	Regions  []*Region
	parent   *Block
}

// FullName returns "dialect.name".
func (o *Op) FullName() string { return o.Dialect + "." + o.Name }

// Result returns the i-th result value.
func (o *Op) Result(i int) *Value { return o.Results[i] }

// Operand returns the i-th operand value.
func (o *Op) Operand(i int) *Value { return o.Operands[i] }

// SetAttr sets an attribute, allocating the map on first use.
func (o *Op) SetAttr(key string, a Attribute) {
	if o.Attrs == nil {
		o.Attrs = make(map[string]Attribute)
	}
	o.Attrs[key] = a
}

// AddRegion appends a fresh region (with an empty entry block) to the op.
func (o *Op) AddRegion() *Region {
	r := &Region{parent: o}
	r.Entry()
	o.Regions = append(o.Regions, r)
	return r
}

// Region is an ordered list of blocks nested under an op.
type Region struct {
	Blocks []*Block
	parent *Op
}

// Entry returns the first block, creating it if the region is empty.
func (r *Region) Entry() *Block {
	if len(r.Blocks) == 0 {
		b := &Block{region: r}
		r.Blocks = append(r.Blocks, b)
	}
	return r.Blocks[0]
}

// Block holds arguments and a straight-line list of ops.
type Block struct {
	Args   []*Value
	Ops    []*Op
	region *Region
}

// AddArg appends a typed block argument and returns its value.
func (b *Block) AddArg(ctx *Context, t Type, name string) *Value {
	v := &Value{id: ctx.newID(), typ: t, ownr: b, idx: len(b.Args), name: name}
	b.Args = append(b.Args, v)
	return v
}

// push appends an op (used by the builder).
func (b *Block) push(op *Op) {
	op.parent = b
	b.Ops = append(b.Ops, op)
}

// Module is the root of an IR tree: a builtin.module op with one region.
type Module struct {
	ctx *Context
	op  *Op
}

// NewModule creates an empty module in the context.
func NewModule(ctx *Context, name string) *Module {
	op := &Op{ctx: ctx, Dialect: "builtin", Name: "module"}
	op.SetAttr("sym_name", StringAttr(name))
	op.Regions = []*Region{{parent: op}}
	op.Regions[0].Entry()
	return &Module{ctx: ctx, op: op}
}

// Context returns the owning context.
func (m *Module) Context() *Context { return m.ctx }

// Body returns the module's entry block.
func (m *Module) Body() *Block { return m.op.Regions[0].Entry() }

// Walk visits every op in the module in pre-order (op before its regions).
func (m *Module) Walk(fn func(*Op)) { walkOp(m.op, fn) }

// WalkBlocks visits every block in the module in pre-order.
func (m *Module) WalkBlocks(fn func(*Block)) {
	m.Walk(func(op *Op) {
		for _, r := range op.Regions {
			for _, b := range r.Blocks {
				fn(b)
			}
		}
	})
}

func walkOp(op *Op, fn func(*Op)) {
	fn(op)
	for _, r := range op.Regions {
		for _, b := range r.Blocks {
			for _, nested := range b.Ops {
				walkOp(nested, fn)
			}
		}
	}
}

// CountOps returns the number of ops with the qualified name in the module.
func (m *Module) CountOps(qualified string) int {
	n := 0
	m.Walk(func(op *Op) {
		if op.FullName() == qualified {
			n++
		}
	})
	return n
}

// Builder constructs ops at an insertion point.
type Builder struct {
	ctx   *Context
	block *Block
}

// NewBuilder returns a builder inserting at the end of block.
func NewBuilder(ctx *Context, block *Block) *Builder {
	return &Builder{ctx: ctx, block: block}
}

// Create builds an op with the given qualified name, operands, result types
// and attributes, appends it to the insertion block, and returns it.
func (b *Builder) Create(qualified string, operands []*Value, resultTypes []Type, attrs map[string]Attribute) *Op {
	dialect, name, ok := splitQualified(qualified)
	if !ok {
		panic(fmt.Sprintf("mlir: op name %q is not dialect-qualified", qualified))
	}
	op := &Op{ctx: b.ctx, Dialect: dialect, Name: name, Operands: operands}
	if attrs != nil {
		op.Attrs = attrs
	}
	for i, rt := range resultTypes {
		op.Results = append(op.Results, &Value{id: b.ctx.newID(), typ: rt, def: op, idx: i})
	}
	b.block.push(op)
	return op
}

// CreateWithRegions is Create plus n fresh regions.
func (b *Builder) CreateWithRegions(qualified string, operands []*Value, resultTypes []Type, attrs map[string]Attribute, nRegions int) *Op {
	op := b.Create(qualified, operands, resultTypes, attrs)
	for i := 0; i < nRegions; i++ {
		r := &Region{parent: op}
		r.Entry()
		op.Regions = append(op.Regions, r)
	}
	return op
}

// ConstantFloat emits builtin.constant with a float value.
func (b *Builder) ConstantFloat(v float64, t Type) *Value {
	op := b.Create("builtin.constant", nil, []Type{t}, map[string]Attribute{"value": FloatAttr(v)})
	return op.Result(0)
}

func splitQualified(q string) (dialect, name string, ok bool) {
	for i := 0; i < len(q); i++ {
		if q[i] == '.' {
			return q[:i], q[i+1:], i > 0 && i < len(q)-1
		}
	}
	return "", "", false
}
