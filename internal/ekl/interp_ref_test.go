package ekl

import (
	"fmt"
	"math"

	"everest/internal/tensor"
)

// The tree-walking evaluator that Kernel.Run replaced, kept as the oracle
// the differential tests hold Run to: it looks every identifier up by name
// at every point of the iteration space and re-derives each sum's extents
// on every evaluation. Binding, shape inference and target preparation are
// shared with Run; only statement execution and expression evaluation are
// the old code, unchanged apart from the receiver.

// refEnv is the oracle's interpreter state: Run's, plus the current
// index-variable assignment by name.
type refEnv struct {
	*evalEnv
	idx map[string]int // current index-variable assignment
}

// refRun is Kernel.Run on the tree-walking evaluator.
func refRun(k *Kernel, b Binding) (*Result, error) {
	env0, dims, err := k.bind(b)
	if err != nil {
		return nil, err
	}
	env := &refEnv{evalEnv: env0}
	for _, s := range k.Stmts {
		if err := env.exec(s); err != nil {
			return nil, fmt.Errorf("ekl: kernel %q line %d: %w", k.Name, s.Line, err)
		}
	}
	res := &Result{Outputs: make(map[string]*tensor.Tensor), All: env.tensors, Dims: dims, Trace: env.trace}
	for _, out := range k.Outputs {
		t, ok := env.tensors[out.Name]
		if !ok {
			return nil, fmt.Errorf("ekl: kernel %q: output %q never assigned", k.Name, out.Name)
		}
		res.Outputs[out.Name] = t
	}
	return res, nil
}

// exec executes one statement.
func (e *refEnv) exec(s *Stmt) error {
	freeOrder, err := e.freeIndices(s)
	if err != nil {
		return err
	}
	extents, err := e.inferExtents(s, freeOrder)
	if err != nil {
		return err
	}

	bounds := make([]int, len(freeOrder))
	for i, name := range freeOrder {
		bounds[i] = extents[name]
	}

	target, err := e.prepareTarget(s, freeOrder, bounds)
	if err != nil {
		return err
	}

	// Record the iteration space for the lowering pipeline, including any
	// reduction indices with their extents.
	info := StmtInfo{Name: s.Name, Free: append([]string(nil), freeOrder...), Extents: extents}
	var sumErr error
	walkExpr(s.RHS, func(x Expr) {
		if sumErr != nil {
			return
		}
		if se, ok := x.(SumExpr); ok {
			info.SumIdx = append(info.SumIdx, se.Indices...)
			sx, err := e.sumExtents(se)
			if err != nil {
				sumErr = err
				return
			}
			for name, ext := range sx {
				info.Extents[name] = ext
			}
		}
	})
	if sumErr != nil {
		return sumErr
	}
	e.trace = append(e.trace, info)

	e.idx = make(map[string]int, len(freeOrder)+4)
	pair, isPair := s.RHS.(PairExpr)
	it := tensor.NewIndexer(bounds)
	lhsIdx := make([]int, 0, len(freeOrder)+1)
	for tuple, ok := it.Next(); ok; tuple, ok = it.Next() {
		for i, name := range freeOrder {
			e.idx[name] = tuple[i]
		}
		lhsIdx = lhsIdx[:0]
		if s.LHS != nil {
			for _, le := range s.LHS {
				v, err := e.evalInt(le)
				if err != nil {
					return err
				}
				lhsIdx = append(lhsIdx, v)
			}
		} else {
			lhsIdx = append(lhsIdx, tuple...)
		}
		if isPair {
			a, err := e.eval(pair.A)
			if err != nil {
				return err
			}
			bv, err := e.eval(pair.B)
			if err != nil {
				return err
			}
			target.Set(a, append(lhsIdx, 0)...)
			target.Set(bv, append(lhsIdx, 1)...)
			continue
		}
		v, err := e.eval(s.RHS)
		if err != nil {
			return err
		}
		if s.Accumulate {
			v += target.At(lhsIdx...)
		}
		target.Set(v, lhsIdx...)
	}
	e.tensors[s.Name] = target
	return nil
}

// eval evaluates an expression to a float64 under the current index
// assignment.
func (e *refEnv) eval(x Expr) (float64, error) {
	switch t := x.(type) {
	case NumberLit:
		return t.Value, nil

	case IdentRef:
		if v, ok := e.scalars[t.Name]; ok {
			return v, nil
		}
		if v, ok := e.idx[t.Name]; ok {
			return float64(v), nil
		}
		if tt, ok := e.tensors[t.Name]; ok {
			if tt.Rank() == 0 {
				return tt.Item(), nil
			}
			return 0, fmt.Errorf("tensor %q used without subscripts", t.Name)
		}
		return 0, fmt.Errorf("unbound identifier %q", t.Name)

	case SubscriptExpr:
		base := t.Base.(IdentRef)
		tt, ok := e.tensors[base.Name]
		if !ok {
			return 0, fmt.Errorf("unknown tensor %q", base.Name)
		}
		idx := make([]int, len(t.Indices))
		for d, ix := range t.Indices {
			v, err := e.evalInt(ix)
			if err != nil {
				return 0, err
			}
			if v < 0 || v >= tt.Shape()[d] {
				return 0, fmt.Errorf("index %d out of range [0,%d) in dim %d of %q",
					v, tt.Shape()[d], d, base.Name)
			}
			idx[d] = v
		}
		return tt.At(idx...), nil

	case BinaryExpr:
		l, err := e.eval(t.L)
		if err != nil {
			return 0, err
		}
		r, err := e.eval(t.R)
		if err != nil {
			return 0, err
		}
		switch t.Op {
		case "+":
			return l + r, nil
		case "-":
			return l - r, nil
		case "*":
			return l * r, nil
		case "/":
			return l / r, nil
		case "<=":
			return boolVal(l <= r), nil
		case "<":
			return boolVal(l < r), nil
		case ">=":
			return boolVal(l >= r), nil
		case ">":
			return boolVal(l > r), nil
		case "==":
			return boolVal(l == r), nil
		case "!=":
			return boolVal(l != r), nil
		}
		return 0, fmt.Errorf("unknown operator %q", t.Op)

	case UnaryExpr:
		v, err := e.eval(t.X)
		if err != nil {
			return 0, err
		}
		return -v, nil

	case CallExpr:
		args := make([]float64, len(t.Args))
		for i, a := range t.Args {
			v, err := e.eval(a)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		switch t.Fn {
		case "select":
			if args[0] != 0 {
				return args[1], nil
			}
			return args[2], nil
		case "exp":
			return math.Exp(args[0]), nil
		case "log":
			return math.Log(args[0]), nil
		case "sqrt":
			return math.Sqrt(args[0]), nil
		case "abs":
			return math.Abs(args[0]), nil
		case "floor":
			return math.Floor(args[0]), nil
		case "min":
			return math.Min(args[0], args[1]), nil
		case "max":
			return math.Max(args[0], args[1]), nil
		case "pow":
			return math.Pow(args[0], args[1]), nil
		}
		return 0, fmt.Errorf("unknown function %q", t.Fn)

	case SumExpr:
		// Extents of sum indices were validated in inferExtents; re-derive
		// them here from the body's subscripts.
		extents, err := e.sumExtents(t)
		if err != nil {
			return 0, err
		}
		bounds := make([]int, len(t.Indices))
		for i, name := range t.Indices {
			bounds[i] = extents[name]
		}
		saved := make([]int, len(t.Indices))
		hadPrev := make([]bool, len(t.Indices))
		for i, name := range t.Indices {
			saved[i], hadPrev[i] = e.idx[name], hasKey(e.idx, name)
		}
		total := 0.0
		it := tensor.NewIndexer(bounds)
		for tuple, ok := it.Next(); ok; tuple, ok = it.Next() {
			for i, name := range t.Indices {
				e.idx[name] = tuple[i]
			}
			v, err := e.eval(t.Body)
			if err != nil {
				return 0, err
			}
			total += v
		}
		for i, name := range t.Indices {
			if hadPrev[i] {
				e.idx[name] = saved[i]
			} else {
				delete(e.idx, name)
			}
		}
		return total, nil

	case PairExpr:
		return 0, fmt.Errorf("pair expression in value position")
	}
	return 0, fmt.Errorf("unhandled expression %T", x)
}

// evalInt evaluates an expression expected to yield an integer (subscript
// position).
func (e *refEnv) evalInt(x Expr) (int, error) {
	v, err := e.eval(x)
	if err != nil {
		return 0, err
	}
	r := math.Round(v)
	if math.Abs(v-r) > 1e-9 {
		return 0, fmt.Errorf("subscript value %g is not an integer", v)
	}
	return int(r), nil
}

func hasKey(m map[string]int, k string) bool { _, ok := m[k]; return ok }
