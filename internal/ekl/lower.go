package ekl

import (
	"fmt"
	"strings"

	"everest/internal/mlir"
	"everest/internal/mlir/dialects"
	"everest/internal/tensor"
)

// Lower compiles a kernel into the EVEREST MLIR stack (paper Fig. 5): it
// first specializes every shape to the binding, then emits an ekl-dialect
// module whose statement ops carry the concrete iteration spaces.
//
// Shapes come from abstract execution: the interpreter's own inference runs
// statement by statement, and the per-point loop is skipped wherever it is
// proven unable to fail (evalEnv.exec), so Lower reports exactly the errors
// Run does. A kernel with a statement that is not proven, such as a gather
// whose subscripts are data, is run by Run from its start instead, so its
// data-dependent errors are still reported at compile time.
//
// A proven kernel is lowered from shapes alone: its binding may be
// data-less (tensor.Shaped), and Lower then allocates nothing that scales
// with the data. Values are created only when a statement evaluates, in
// the fallback to Run.
//
// The returned module verifies under the registered dialects and can be
// progressively lowered with LowerToTeIL and LowerToAffine, which is the
// pipeline measured by experiment E2. The returned shapes carry no value:
// Run is the only way to get values.
func Lower(k *Kernel, b Binding) (*mlir.Module, *Shapes, error) {
	sh, err := k.shapes(b)
	if err != nil {
		return nil, nil, err
	}
	ctx := mlir.NewContext()
	dialects.RegisterAll(ctx)
	m := mlir.NewModule(ctx, k.Name)
	mb := mlir.NewBuilder(ctx, m.Body())

	kop := mb.CreateWithRegions("ekl.kernel", nil, nil, map[string]mlir.Attribute{
		"sym_name": mlir.StringAttr(k.Name),
	}, 1)
	kb := mlir.NewBuilder(ctx, kop.Regions[0].Entry())

	// Materialize inputs and params as ekl.tensor bindings.
	vals := make(map[string]*mlir.Value)
	for _, in := range k.Inputs {
		elem := mlir.F64()
		if in.IsIndex {
			elem = mlir.Index()
		}
		op := kb.Create("ekl.tensor", nil, []mlir.Type{mlir.TensorOf(elem, sh.Tensors[in.Name]...)},
			map[string]mlir.Attribute{"name": mlir.StringAttr(in.Name), "kind": mlir.StringAttr("input")})
		op.Result(0).SetName(in.Name)
		vals[in.Name] = op.Result(0)
	}
	for _, p := range k.Params {
		op := kb.Create("ekl.tensor", nil, []mlir.Type{mlir.TensorOf(mlir.F64())},
			map[string]mlir.Attribute{"name": mlir.StringAttr(p.Name), "kind": mlir.StringAttr("param")})
		op.Result(0).SetName(p.Name)
		vals[p.Name] = op.Result(0)
	}

	// Lower statements in order using the recorded iteration spaces.
	for i, s := range k.Stmts {
		lw := &stmtLowerer{b: kb, vals: vals, info: sh.Trace[i]}
		v, err := lw.lowerExpr(s.RHS)
		if err != nil {
			return nil, nil, fmt.Errorf("ekl: lowering %q line %d: %w", s.Name, s.Line, err)
		}
		v.SetName(s.Name)
		vals[s.Name] = v
	}
	for _, out := range k.Outputs {
		kb.Create("ekl.output", []*mlir.Value{vals[out.Name]}, nil,
			map[string]mlir.Attribute{"name": mlir.StringAttr(out.Name)})
	}
	if err := m.Verify(); err != nil {
		return nil, nil, fmt.Errorf("ekl: lowered module does not verify: %w", err)
	}
	return m, sh, nil
}

// shapes returns the kernel's shapes under b: from the shape pass when it
// proves every statement, else from a full run.
func (k *Kernel) shapes(b Binding) (*Shapes, error) {
	if sh, proven, err := k.inferShapes(b); proven || err != nil {
		return sh, err
	}
	res, err := k.Run(b)
	if err != nil {
		return nil, err
	}
	return SpecializedShapes(res), nil
}

// stmtLowerer lowers one statement's expression tree.
type stmtLowerer struct {
	b    *mlir.Builder
	vals map[string]*mlir.Value
	info StmtInfo
}

func (l *stmtLowerer) resultType(indices []string) mlir.Type {
	shape := make([]int, len(indices))
	for i, ix := range indices {
		shape[i] = l.info.Extents[ix]
	}
	return mlir.TensorOf(mlir.F64(), shape...)
}

// lowerExpr returns the SSA value of an expression. Values are typed as
// tensors over the expression's free indices.
func (l *stmtLowerer) lowerExpr(e Expr) (*mlir.Value, error) {
	switch t := e.(type) {
	case NumberLit:
		return l.b.ConstantFloat(t.Value, mlir.F64()), nil

	case IdentRef:
		if v, ok := l.vals[t.Name]; ok {
			return v, nil
		}
		// Index variable used as a value: materialize an iota tensor.
		op := l.b.Create("ekl.tensor", nil,
			[]mlir.Type{mlir.TensorOf(mlir.Index(), l.info.Extents[t.Name])},
			map[string]mlir.Attribute{"name": mlir.StringAttr(t.Name), "kind": mlir.StringAttr("iota")})
		return op.Result(0), nil

	case SubscriptExpr:
		base := t.Base.(IdentRef)
		bv, ok := l.vals[base.Name]
		if !ok {
			return nil, fmt.Errorf("unknown tensor %q", base.Name)
		}
		// Trivial subscripts (all bare index variables) are pure access
		// pattern information: no op needed, the einsum spec captures them.
		trivial := true
		for _, ix := range t.Indices {
			if _, ok := ix.(IdentRef); !ok {
				trivial = false
				break
			}
		}
		if trivial {
			return bv, nil
		}
		// Non-trivial subscripts (arithmetic or nested tensors) become an
		// explicit gather: this is the "subscripted subscripts" feature.
		operands := []*mlir.Value{bv}
		var pattern []string
		for _, ix := range t.Indices {
			switch iv := ix.(type) {
			case IdentRef:
				pattern = append(pattern, iv.Name)
			default:
				idxVal, err := l.lowerExpr(ix)
				if err != nil {
					return nil, err
				}
				operands = append(operands, idxVal)
				pattern = append(pattern, fmt.Sprintf("#%d", len(operands)-1))
			}
		}
		free := l.freeOf(t)
		op := l.b.Create("ekl.gather", operands, []mlir.Type{l.resultType(free)},
			map[string]mlir.Attribute{"pattern": mlir.StringAttr(strings.Join(pattern, ","))})
		return op.Result(0), nil

	case BinaryExpr:
		lv, err := l.lowerExpr(t.L)
		if err != nil {
			return nil, err
		}
		rv, err := l.lowerExpr(t.R)
		if err != nil {
			return nil, err
		}
		free := l.freeOf(t)
		op := l.b.Create("ekl.binary", []*mlir.Value{lv, rv}, []mlir.Type{l.resultType(free)},
			map[string]mlir.Attribute{"fn": mlir.StringAttr(t.Op)})
		return op.Result(0), nil

	case UnaryExpr:
		xv, err := l.lowerExpr(t.X)
		if err != nil {
			return nil, err
		}
		op := l.b.Create("ekl.unary", []*mlir.Value{xv}, []mlir.Type{xv.Type()},
			map[string]mlir.Attribute{"fn": mlir.StringAttr("neg")})
		return op.Result(0), nil

	case CallExpr:
		args := make([]*mlir.Value, len(t.Args))
		for i, a := range t.Args {
			v, err := l.lowerExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		free := l.freeOf(t)
		if t.Fn == "select" {
			op := l.b.Create("ekl.select", args, []mlir.Type{l.resultType(free)}, nil)
			return op.Result(0), nil
		}
		if len(args) == 1 {
			op := l.b.Create("ekl.unary", args, []mlir.Type{l.resultType(free)},
				map[string]mlir.Attribute{"fn": mlir.StringAttr(t.Fn)})
			return op.Result(0), nil
		}
		op := l.b.Create("ekl.binary", args, []mlir.Type{l.resultType(free)},
			map[string]mlir.Attribute{"fn": mlir.StringAttr(t.Fn)})
		return op.Result(0), nil

	case SumExpr:
		body, err := l.lowerExpr(t.Body)
		if err != nil {
			return nil, err
		}
		bodyIdx := l.freeOfWithSum(t.Body)
		outIdx := removeAll(bodyIdx, t.Indices)
		spec := letterSpec(bodyIdx) + "->" + letterSpecSubset(bodyIdx, outIdx)
		redBounds := make([]int, len(t.Indices))
		for i, ix := range t.Indices {
			redBounds[i] = l.info.Extents[ix]
		}
		op := l.b.Create("ekl.einsum", []*mlir.Value{body}, []mlir.Type{l.resultType(outIdx)},
			map[string]mlir.Attribute{
				"spec":          mlir.StringAttr(spec),
				"indices":       mlir.StringsAttr(bodyIdx...),
				"reduce":        mlir.StringsAttr(t.Indices...),
				"reduce_bounds": mlir.IntsAttr(redBounds...),
			})
		return op.Result(0), nil

	case PairExpr:
		av, err := l.lowerExpr(t.A)
		if err != nil {
			return nil, err
		}
		bv, err := l.lowerExpr(t.B)
		if err != nil {
			return nil, err
		}
		free := append(l.freeOf(t), "__pair")
		shape := make([]int, 0, len(free))
		for _, ix := range free[:len(free)-1] {
			shape = append(shape, l.info.Extents[ix])
		}
		shape = append(shape, 2)
		op := l.b.Create("ekl.binary", []*mlir.Value{av, bv},
			[]mlir.Type{mlir.TensorOf(mlir.F64(), shape...)},
			map[string]mlir.Attribute{"fn": mlir.StringAttr("pair")})
		return op.Result(0), nil
	}
	return nil, fmt.Errorf("unhandled expression %T", e)
}

// freeOf returns the free index variables of an expression (those with a
// recorded extent), in first-appearance order, ignoring sum-bound ones.
func (l *stmtLowerer) freeOf(e Expr) []string {
	var order []string
	seen := make(map[string]bool)
	var walk func(x Expr, bound map[string]bool)
	walk = func(x Expr, bound map[string]bool) {
		switch t := x.(type) {
		case IdentRef:
			if _, isVal := l.vals[t.Name]; isVal {
				return
			}
			if _, hasExt := l.info.Extents[t.Name]; hasExt && !bound[t.Name] && !seen[t.Name] {
				seen[t.Name] = true
				order = append(order, t.Name)
			}
		case SubscriptExpr:
			for _, ix := range t.Indices {
				walk(ix, bound)
			}
		case BinaryExpr:
			walk(t.L, bound)
			walk(t.R, bound)
		case UnaryExpr:
			walk(t.X, bound)
		case CallExpr:
			for _, a := range t.Args {
				walk(a, bound)
			}
		case SumExpr:
			inner := make(map[string]bool, len(bound)+len(t.Indices))
			for k := range bound {
				inner[k] = true
			}
			for _, ix := range t.Indices {
				inner[ix] = true
			}
			walk(t.Body, inner)
		case PairExpr:
			walk(t.A, bound)
			walk(t.B, bound)
		}
	}
	walk(e, map[string]bool{})
	return order
}

// freeOfWithSum is freeOf but keeps sum-bound indices (for einsum specs).
func (l *stmtLowerer) freeOfWithSum(e Expr) []string {
	var order []string
	seen := make(map[string]bool)
	walkExpr(e, func(x Expr) {
		if id, ok := x.(IdentRef); ok {
			if _, isVal := l.vals[id.Name]; isVal {
				return
			}
			if _, hasExt := l.info.Extents[id.Name]; hasExt && !seen[id.Name] {
				seen[id.Name] = true
				order = append(order, id.Name)
			}
		}
	})
	return order
}

func removeAll(from, remove []string) []string {
	rm := make(map[string]bool, len(remove))
	for _, r := range remove {
		rm[r] = true
	}
	var out []string
	for _, f := range from {
		if !rm[f] {
			out = append(out, f)
		}
	}
	return out
}

// letterSpec assigns each index a distinct letter a.. and renders them.
func letterSpec(indices []string) string {
	var b strings.Builder
	for i := range indices {
		b.WriteByte(byte('a' + i%26))
	}
	return b.String()
}

func letterSpecSubset(all, subset []string) string {
	pos := make(map[string]int, len(all))
	for i, name := range all {
		pos[name] = i
	}
	var b strings.Builder
	for _, s := range subset {
		b.WriteByte(byte('a' + pos[s]%26))
	}
	return b.String()
}

// LowerToTeIL rewrites einsum/select/gather/binary statement ops into
// teil.loop nests (paper: ekl -> teil lowering). It returns a module pass.
func LowerToTeIL() mlir.Pass {
	return mlir.PassFunc{PassName: "ekl-to-teil", Fn: func(m *mlir.Module) error {
		ctx := m.Context()
		m.WalkBlocks(func(blk *mlir.Block) {
			for _, op := range append([]*mlir.Op(nil), blk.Ops...) {
				if op.Dialect != "ekl" {
					continue
				}
				switch op.Name {
				case "einsum", "select", "gather", "binary", "unary":
					lowerStmtOpToLoop(ctx, op)
				}
			}
		})
		return nil
	}}
}

// lowerStmtOpToLoop attaches a teil.loop region to the op describing its
// iteration space: the loop body loads each operand, applies the op's
// function and stores the result. The original op is annotated rather than
// replaced so SSA uses stay valid; the annotation is what the HLS frontend
// and the affine lowering consume.
func lowerStmtOpToLoop(ctx *mlir.Context, op *mlir.Op) {
	resT, ok := op.Result(0).Type().(mlir.TensorType)
	if !ok {
		return
	}
	indices := make([]mlir.Attribute, 0, resT.Rank())
	bounds := make([]mlir.Attribute, 0, resT.Rank())
	for d, ext := range resT.Shape {
		indices = append(indices, mlir.StringAttr(fmt.Sprintf("i%d", d)))
		bounds = append(bounds, mlir.IntAttr(ext))
	}
	// Reduction dims extend the nest, with extents recorded at einsum
	// creation time.
	if red, ok := op.Attrs["reduce"].(mlir.ArrayAttr); ok {
		redBounds, _ := op.Attrs["reduce_bounds"].(mlir.ArrayAttr)
		for r := range red {
			indices = append(indices, mlir.StringAttr(fmt.Sprintf("r%d", r)))
			ext := mlir.IntAttr(2)
			if r < len(redBounds) {
				if ia, ok := redBounds[r].(mlir.IntAttr); ok {
					ext = ia
				}
			}
			bounds = append(bounds, ext)
		}
	}
	region := op.AddRegion()
	body := region.Entry()
	for range indices {
		body.AddArg(ctx, mlir.Index(), "iv")
	}
	bb := mlir.NewBuilder(ctx, body)
	var loaded []*mlir.Value
	for _, operand := range op.Operands {
		l := bb.Create("teil.load", []*mlir.Value{operand}, []mlir.Type{mlir.F64()},
			map[string]mlir.Attribute{"note": mlir.StringAttr("operand element")})
		loaded = append(loaded, l.Result(0))
	}
	var v *mlir.Value
	switch {
	case len(loaded) == 0:
		v = bb.ConstantFloat(0, mlir.F64())
	case len(loaded) == 1:
		v = loaded[0]
	default:
		acc := loaded[0]
		for _, next := range loaded[1:] {
			o := bb.Create("teil.binary", []*mlir.Value{acc, next}, []mlir.Type{mlir.F64()},
				map[string]mlir.Attribute{"fn": mlir.StringAttr(mlir.GetString(op.Attrs, "fn", "*"))})
			acc = o.Result(0)
		}
		v = acc
	}
	if _, isReduce := op.Attrs["reduce"]; isReduce {
		zero := bb.ConstantFloat(0, mlir.F64())
		o := bb.Create("teil.accumulate", []*mlir.Value{zero, v}, []mlir.Type{mlir.F64()}, nil)
		v = o.Result(0)
	}
	bb.Create("teil.store", []*mlir.Value{v, v}, nil, nil)
	bb.Create("teil.yield", nil, nil, nil)

	op.SetAttr("teil.lowered", mlir.BoolAttr(true))
	op.SetAttr("indices", mlir.ArrayAttr(indices))
	op.SetAttr("bounds", mlir.ArrayAttr(bounds))
}

// LowerToAffine expands every teil-lowered statement op into nested
// affine.for loops, the form consumed by the HLS scheduler.
func LowerToAffine() mlir.Pass {
	return mlir.PassFunc{PassName: "teil-to-affine", Fn: func(m *mlir.Module) error {
		ctx := m.Context()
		var rewrite []*mlir.Op
		m.Walk(func(op *mlir.Op) {
			if mlir.GetBool(op.Attrs, "teil.lowered", false) && !mlir.GetBool(op.Attrs, "affine.lowered", false) {
				rewrite = append(rewrite, op)
			}
		})
		for _, op := range rewrite {
			bounds, _ := op.Attrs["bounds"].(mlir.ArrayAttr)
			region := op.AddRegion()
			cur := mlir.NewBuilder(ctx, region.Entry())
			for _, battr := range bounds {
				ext, _ := battr.(mlir.IntAttr)
				forOp := cur.CreateWithRegions("affine.for", nil, nil, map[string]mlir.Attribute{
					"lower": mlir.IntAttr(0), "upper": ext,
				}, 1)
				inner := forOp.Regions[0].Entry()
				inner.AddArg(ctx, mlir.Index(), "iv")
				cur = mlir.NewBuilder(ctx, inner)
			}
			// Loads read from the op's operands (visible in the region);
			// when the op has none, a constant stands in for the element.
			var src *mlir.Value
			if len(op.Operands) > 0 {
				src = op.Operand(0)
			} else {
				src = cur.ConstantFloat(0, mlir.F64())
			}
			ld := cur.Create("affine.load", []*mlir.Value{src}, []mlir.Type{mlir.F64()}, nil)
			cur.Create("affine.store", []*mlir.Value{ld.Result(0), src}, nil, nil)
			cur.Create("affine.yield", nil, nil, nil)
			op.SetAttr("affine.lowered", mlir.BoolAttr(true))
		}
		return nil
	}}
}

// Shapes is what lowering knows of a kernel under one binding: the shape
// of every tensor and the iteration space of every statement, and no
// value.
type Shapes struct {
	// Tensors maps every input and every assigned name to its shape.
	Tensors map[string][]int
	// Trace is as in Result.
	Trace []StmtInfo
}

// Size returns the element count of the named tensor, 0 if there is none.
func (s *Shapes) Size(name string) int {
	shape, ok := s.Tensors[name]
	if !ok {
		return 0
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func newShapes(tensors map[string]*tensor.Tensor, trace []StmtInfo) *Shapes {
	out := make(map[string][]int, len(tensors))
	for name, t := range tensors {
		out[name] = t.Shape()
	}
	return &Shapes{Tensors: out, Trace: trace}
}

// SpecializedShapes returns the shapes of a run: what Lower returns for the
// same kernel and binding.
func SpecializedShapes(res *Result) *Shapes {
	return newShapes(res.All, res.Trace)
}
