package ekl

import (
	"fmt"
	"math"

	"everest/internal/tensor"
)

// A statement runs in two steps. exec first resolves each of its
// expressions once into a tree of closures over one []int of index slots:
// scalars become constants, index variables become slot reads, tensors
// become their *tensor.Tensor, and each sum's extents are fixed. Then it
// runs that tree at every point of the iteration space, with no lookups by
// name and no allocation per point.

// valueFn evaluates a resolved expression at the index assignment held in
// slots.
type valueFn func(slots []int) (float64, error)

// intFn evaluates a resolved subscript expression.
type intFn func(slots []int) (int, error)

// resolver resolves the expressions of one statement against the tensors
// and scalars bound when the statement starts.
type resolver struct {
	env   *evalEnv
	scope map[string]int // index variable in scope -> its slot
	slots int            // slots allocated so far
	// mayFail is set once some point might fail: a deferred failure, or a
	// subscript that evaluates a value, which can leave its range.
	mayFail bool
}

// newResolver puts the statement's free indices in scope, in slots
// 0..len(free)-1. A repeated name reads the slot of its last position.
func newResolver(e *evalEnv, free []string) *resolver {
	r := &resolver{env: e, scope: make(map[string]int, len(free)), slots: len(free)}
	for i, name := range free {
		r.scope[name] = i
	}
	return r
}

// fail defers err to evaluation: an expression that cannot be evaluated
// errors only if the iteration reaches it, so an empty iteration space
// still succeeds and the first error is the one operand order reaches.
func (r *resolver) fail(err error) valueFn {
	r.mayFail = true
	return func([]int) (float64, error) { return 0, err }
}

// value resolves an expression evaluated to a float64.
func (r *resolver) value(x Expr) valueFn {
	switch t := x.(type) {
	case NumberLit:
		v := t.Value
		return func([]int) (float64, error) { return v, nil }

	case IdentRef:
		return r.ident(t.Name)

	case SubscriptExpr:
		return r.subscript(t)

	case BinaryExpr:
		l, rt := r.value(t.L), r.value(t.R)
		op := binaryOps[t.Op]
		var unknown error
		if op == nil {
			r.mayFail = true
			unknown = fmt.Errorf("unknown operator %q", t.Op)
		}
		return func(s []int) (float64, error) {
			a, err := l(s)
			if err != nil {
				return 0, err
			}
			b, err := rt(s)
			if err != nil {
				return 0, err
			}
			if op == nil {
				return 0, unknown
			}
			return op(a, b), nil
		}

	case UnaryExpr:
		x := r.value(t.X)
		return func(s []int) (float64, error) {
			v, err := x(s)
			if err != nil {
				return 0, err
			}
			return -v, nil
		}

	case CallExpr:
		args := make([]valueFn, len(t.Args))
		for i, a := range t.Args {
			args[i] = r.value(a)
		}
		fn := builtins[t.Fn]
		var unknown error
		if fn == nil {
			r.mayFail = true
			unknown = fmt.Errorf("unknown function %q", t.Fn)
		}
		vals := make([]float64, len(args))
		return func(s []int) (float64, error) {
			for i, a := range args {
				v, err := a(s)
				if err != nil {
					return 0, err
				}
				vals[i] = v
			}
			if fn == nil {
				return 0, unknown
			}
			return fn(vals), nil
		}

	case SumExpr:
		return r.sum(t)

	case PairExpr:
		return r.fail(fmt.Errorf("pair expression in value position"))
	}
	return r.fail(fmt.Errorf("unhandled expression %T", x))
}

// ident resolves a bare identifier: a scalar parameter, then an index
// variable in scope, then a rank-0 tensor.
func (r *resolver) ident(name string) valueFn {
	if v, ok := r.env.scalars[name]; ok {
		return func([]int) (float64, error) { return v, nil }
	}
	if slot, ok := r.scope[name]; ok {
		return func(s []int) (float64, error) { return float64(s[slot]), nil }
	}
	if tt, ok := r.env.tensors[name]; ok {
		if tt.Rank() == 0 {
			return func([]int) (float64, error) { return tt.Item(), nil }
		}
		return r.fail(fmt.Errorf("tensor %q used without subscripts", name))
	}
	return r.fail(fmt.Errorf("unbound identifier %q", name))
}

// index resolves a subscript position. A bare index variable reads its
// slot; anything else must evaluate to an integer.
func (r *resolver) index(x Expr) intFn {
	if id, ok := x.(IdentRef); ok {
		if _, scalar := r.env.scalars[id.Name]; !scalar {
			if slot, ok := r.scope[id.Name]; ok {
				return func(s []int) (int, error) { return s[slot], nil }
			}
		}
	}
	r.mayFail = true
	f := r.value(x)
	return func(s []int) (int, error) {
		v, err := f(s)
		if err != nil {
			return 0, err
		}
		rv := math.Round(v)
		if math.Abs(v-rv) > 1e-9 {
			return 0, fmt.Errorf("subscript value %g is not an integer", v)
		}
		return int(rv), nil
	}
}

// subscript resolves a tensor read. Each index is range-checked as soon as
// it is evaluated, before the next one is.
func (r *resolver) subscript(t SubscriptExpr) valueFn {
	name := t.Base.(IdentRef).Name
	tt, ok := r.env.tensors[name]
	if !ok {
		return r.fail(fmt.Errorf("unknown tensor %q", name))
	}
	ix := make([]intFn, len(t.Indices))
	for d, e := range t.Indices {
		ix[d] = r.index(e)
	}
	shape, data := tt.Shape(), tt.Data()
	var rank error
	if len(ix) != len(shape) {
		r.mayFail = true
		rank = fmt.Errorf("tensor %q has rank %d but %d subscripts", name, len(shape), len(ix))
	}
	return func(s []int) (float64, error) {
		off := 0
		for d, f := range ix {
			v, err := f(s)
			if err != nil {
				return 0, err
			}
			if d >= len(shape) {
				return 0, rank
			}
			if v < 0 || v >= shape[d] {
				return 0, fmt.Errorf("index %d out of range [0,%d) in dim %d of %q", v, shape[d], d, name)
			}
			off = off*shape[d] + v
		}
		if len(ix) != len(shape) {
			return 0, rank
		}
		return data[off], nil
	}
}

// sum resolves a reduction. Its indices get fresh slots that shadow any
// outer binding of the same names inside the body only.
func (r *resolver) sum(t SumExpr) valueFn {
	extents, err := r.env.sumExtents(t)
	if err != nil {
		return r.fail(err)
	}
	bounds := make([]int, len(t.Indices))
	at := make([]int, len(t.Indices))
	type binding struct {
		slot  int
		bound bool
	}
	outer := make([]binding, len(t.Indices))
	for i, name := range t.Indices {
		bounds[i] = extents[name]
		outer[i].slot, outer[i].bound = r.scope[name]
		at[i] = r.slots
		r.scope[name] = r.slots
		r.slots++
	}
	body := r.value(t.Body)
	for i := len(t.Indices) - 1; i >= 0; i-- {
		if outer[i].bound {
			r.scope[t.Indices[i]] = outer[i].slot
		} else {
			delete(r.scope, t.Indices[i])
		}
	}
	return func(s []int) (float64, error) {
		total := 0.0
		for ok := first(s, at, bounds); ok; ok = next(s, at, bounds) {
			v, err := body(s)
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	}
}

// first zeroes the slots at and reports whether the row-major product of
// bounds has a point. As with tensor.Indexer, empty bounds have exactly one.
func first(s, at, bounds []int) bool {
	for _, b := range bounds {
		if b <= 0 {
			return false
		}
	}
	for _, p := range at {
		s[p] = 0
	}
	return true
}

// next steps the slots at to the next point in row-major order and reports
// false once the product of bounds is exhausted.
func next(s, at, bounds []int) bool {
	for d := len(at) - 1; d >= 0; d-- {
		s[at[d]]++
		if s[at[d]] < bounds[d] {
			return true
		}
		s[at[d]] = 0
	}
	return false
}

// offset returns the row-major position of idx in t, the statement target
// called name, or the error a read at idx would give.
func offset(t *tensor.Tensor, name string, idx []int) (int, error) {
	shape := t.Shape()
	if len(idx) != len(shape) {
		return 0, fmt.Errorf("target %q has rank %d but %d subscripts", name, len(shape), len(idx))
	}
	off := 0
	for d, v := range idx {
		if v < 0 || v >= shape[d] {
			return 0, fmt.Errorf("index %d out of range [0,%d) in dim %d of %q", v, shape[d], d, name)
		}
		off = off*shape[d] + v
	}
	return off, nil
}

var binaryOps = map[string]func(l, r float64) float64{
	"+":  func(l, r float64) float64 { return l + r },
	"-":  func(l, r float64) float64 { return l - r },
	"*":  func(l, r float64) float64 { return l * r },
	"/":  func(l, r float64) float64 { return l / r },
	"<=": func(l, r float64) float64 { return boolVal(l <= r) },
	"<":  func(l, r float64) float64 { return boolVal(l < r) },
	">=": func(l, r float64) float64 { return boolVal(l >= r) },
	">":  func(l, r float64) float64 { return boolVal(l > r) },
	"==": func(l, r float64) float64 { return boolVal(l == r) },
	"!=": func(l, r float64) float64 { return boolVal(l != r) },
}

// builtins maps each builtin to its evaluation over already-evaluated
// arguments; the parser fixes their arity.
var builtins = map[string]func(a []float64) float64{
	"select": func(a []float64) float64 {
		if a[0] != 0 {
			return a[1]
		}
		return a[2]
	},
	"exp":   func(a []float64) float64 { return math.Exp(a[0]) },
	"log":   func(a []float64) float64 { return math.Log(a[0]) },
	"sqrt":  func(a []float64) float64 { return math.Sqrt(a[0]) },
	"abs":   func(a []float64) float64 { return math.Abs(a[0]) },
	"floor": func(a []float64) float64 { return math.Floor(a[0]) },
	"min":   func(a []float64) float64 { return math.Min(a[0], a[1]) },
	"max":   func(a []float64) float64 { return math.Max(a[0], a[1]) },
	"pow":   func(a []float64) float64 { return math.Pow(a[0], a[1]) },
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
