package ekl

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"everest/internal/tensor"
)

// Binding supplies the tensors and scalars of one kernel execution. A
// tensor may be data-less (tensor.Shaped): it binds a shape, which is all
// Lower's shape pass reads. Values are created only when a statement
// evaluates: Run then gives each data-less input fresh synthetic values
// (see bind) and leaves the Binding as it was.
type Binding struct {
	Tensors map[string]*tensor.Tensor
	Scalars map[string]float64
}

// Result holds the tensors produced by a kernel run.
type Result struct {
	// Outputs maps declared output names to their tensors.
	Outputs map[string]*tensor.Tensor
	// All maps every assigned name (including temporaries) to its tensor,
	// useful for debugging and for the lowering tests.
	All map[string]*tensor.Tensor
	// Trace records, per executed statement, the inferred iteration space.
	// The MLIR lowering uses it to emit concrete loop nests.
	Trace []StmtInfo
}

// StmtInfo records the iteration space inferred for one statement.
type StmtInfo struct {
	Free    []string       // free indices in iteration order
	Extents map[string]int // extent of every index (free and summed)
	SumIdx  []string       // reduction indices, if any
}

// Run type-checks the kernel against the binding and interprets it. This is
// the reference semantics of EKL: the HLS path must produce numerically
// identical results (experiment E1).
func (k *Kernel) Run(b Binding) (*Result, error) {
	env, err := k.interpret(b, false)
	if err != nil {
		return nil, err
	}
	res := &Result{Outputs: make(map[string]*tensor.Tensor), All: env.tensors, Trace: env.trace}
	for _, out := range k.Outputs {
		res.Outputs[out.Name] = env.tensors[out.Name]
	}
	return res, nil
}

// inferShapes is Lower's shape pass: it runs every statement up to its
// per-point loop, which it skips because the statement cannot fail there
// (evalEnv.exec), and returns the shapes Run would produce, with the same
// error wherever Run errors. It reports false, with no error, at the first
// statement it cannot prove: that one needs Run.
func (k *Kernel) inferShapes(b Binding) (*Shapes, bool, error) {
	env, err := k.interpret(b, true)
	switch {
	case err == errNeedsValues:
		return nil, false, nil
	case err != nil:
		return nil, false, err
	}
	return newShapes(env.tensors, env.trace), true, nil
}

// errNeedsValues stops a shape pass at a statement whose per-point loop
// might fail.
var errNeedsValues = errors.New("ekl: statement needs evaluation")

// interpret binds the kernel and executes its statements in order; with
// shapesOnly, as far as the shape pass goes.
func (k *Kernel) interpret(b Binding, shapesOnly bool) (*evalEnv, error) {
	env, err := k.bind(b, shapesOnly)
	if err != nil {
		return nil, err
	}
	for _, s := range k.Stmts {
		err := env.exec(s)
		if err == errNeedsValues {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("ekl: kernel %q line %d: %w", k.Name, s.Line, err)
		}
	}
	for _, out := range k.Outputs {
		if _, ok := env.tensors[out.Name]; !ok {
			return nil, fmt.Errorf("ekl: kernel %q: output %q never assigned", k.Name, out.Name)
		}
	}
	return env, nil
}

// Check performs the static (binding-independent) checks: unique names,
// outputs assigned, pair expressions only at statement level, subscript
// bases are identifiers.
func (k *Kernel) Check() error {
	seen := make(map[string]string)
	declare := func(name, what string) error {
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("ekl: kernel %q: %s %q redeclares %s", k.Name, what, name, prev)
		}
		seen[name] = what
		return nil
	}
	for _, in := range k.Inputs {
		if err := declare(in.Name, "input"); err != nil {
			return err
		}
		if len(in.Dims) == 0 {
			return fmt.Errorf("ekl: kernel %q: input %q has no dimensions", k.Name, in.Name)
		}
	}
	for _, p := range k.Params {
		if err := declare(p.Name, "param"); err != nil {
			return err
		}
	}
	assigned := make(map[string]bool)
	for _, s := range k.Stmts {
		if seen[s.Name] == "input" || seen[s.Name] == "param" {
			return fmt.Errorf("ekl: kernel %q line %d: cannot assign to %s %q", k.Name, s.Line, seen[s.Name], s.Name)
		}
		assigned[s.Name] = true
		var bad error
		// A pair constructor is only legal as the full statement RHS; any
		// pair nested below the root is an error.
		rootsToWalk := []Expr{s.RHS}
		if p, ok := s.RHS.(PairExpr); ok {
			rootsToWalk = []Expr{p.A, p.B}
		}
		for _, root := range rootsToWalk {
			walkExpr(root, func(e Expr) {
				if bad != nil {
					return
				}
				switch t := e.(type) {
				case PairExpr:
					bad = fmt.Errorf("ekl: kernel %q line %d: pair [a, b] is only allowed as a full statement right-hand side", k.Name, s.Line)
				case SubscriptExpr:
					if _, ok := t.Base.(IdentRef); !ok {
						bad = fmt.Errorf("ekl: kernel %q line %d: subscript base must be a tensor name", k.Name, s.Line)
					}
				}
			})
		}
		if bad != nil {
			return bad
		}
	}
	for _, out := range k.Outputs {
		if !assigned[out.Name] {
			return fmt.Errorf("ekl: kernel %q: output %q is never assigned", k.Name, out.Name)
		}
	}
	return nil
}

// bind validates the binding against the declarations and unifies symbolic
// dimension extents. Unless shapesOnly, it gives each data-less input a
// fresh tensor of synthetic values (synthesize).
func (k *Kernel) bind(b Binding, shapesOnly bool) (*evalEnv, error) {
	if err := k.Check(); err != nil {
		return nil, err
	}
	env := &evalEnv{
		kernel:     k,
		tensors:    make(map[string]*tensor.Tensor),
		scalars:    make(map[string]float64),
		shapesOnly: shapesOnly,
	}
	dims := make(map[string]int)
	seed := uint64(syntheticSeed)
	for _, in := range k.Inputs {
		t, ok := b.Tensors[in.Name]
		if !ok {
			return nil, fmt.Errorf("ekl: kernel %q: missing input tensor %q", k.Name, in.Name)
		}
		if t.Rank() != len(in.Dims) {
			return nil, fmt.Errorf("ekl: kernel %q: input %q has rank %d, declared %d",
				k.Name, in.Name, t.Rank(), len(in.Dims))
		}
		for d, dim := range in.Dims {
			got := t.Shape()[d]
			if dim.Sym != "" {
				if prev, ok := dims[dim.Sym]; ok && prev != got {
					return nil, fmt.Errorf("ekl: kernel %q: dimension %s bound to both %d and %d",
						k.Name, dim.Sym, prev, got)
				}
				dims[dim.Sym] = got
			} else if dim.Size != got {
				return nil, fmt.Errorf("ekl: kernel %q: input %q dim %d is %d, declared %d",
					k.Name, in.Name, d, got, dim.Size)
			}
		}
		if !shapesOnly && !t.HasData() {
			t = synthesize(t.Shape(), in.IsIndex, &seed)
		}
		env.tensors[in.Name] = t
	}
	for _, p := range k.Params {
		v, ok := b.Scalars[p.Name]
		if !ok {
			if !p.HasDef {
				return nil, fmt.Errorf("ekl: kernel %q: missing parameter %q", k.Name, p.Name)
			}
			v = p.Default
		}
		if p.IsInt && v != math.Trunc(v) {
			return nil, fmt.Errorf("ekl: kernel %q: iparam %q must be integral, got %g", k.Name, p.Name, v)
		}
		env.scalars[p.Name] = v
	}
	return env, nil
}

// syntheticSeed starts the xorshift stream that synthesize draws from.
const syntheticSeed = 0x2545f4914f6cdd1d

// synthesize returns a fresh tensor of the given shape for a data-less
// input: zeros for an index input, so every subscript it feeds is in
// range, else the next values in (0, 1] of the xorshift stream at seed,
// which bind draws in declaration order.
func synthesize(shape []int, index bool, seed *uint64) *tensor.Tensor {
	t := tensor.New(shape...)
	if index {
		return t
	}
	data := t.Data()
	for i := range data {
		*seed ^= *seed << 13
		*seed ^= *seed >> 7
		*seed ^= *seed << 17
		data[i] = float64(*seed%1000)/1000 + 0.001
	}
	return t
}

// evalEnv is the mutable interpreter state.
type evalEnv struct {
	kernel     *Kernel
	tensors    map[string]*tensor.Tensor
	scalars    map[string]float64
	trace      []StmtInfo
	shapesOnly bool // skip every per-point loop; see exec
}

func (e *evalEnv) isTensor(name string) bool { _, ok := e.tensors[name]; return ok }
func (e *evalEnv) isScalar(name string) bool { _, ok := e.scalars[name]; return ok }

// exec executes one statement: it infers the iteration space and records
// it in the trace, resolves the statement's expressions once (resolve.go),
// then evaluates them at every point, range-checking each write.
//
// With shapesOnly it skips that per-point loop for a statement that cannot
// fail in it, and otherwise returns errNeedsValues. A statement cannot fail
// there when the resolver deferred no failure and evaluates no subscript
// (resolver.mayFail): every subscript, read or written, is then a bare
// index variable, which inferExtents and sumExtents tied to the dimension
// it indexes, so every read is in range. What is left is the write, which
// writesFit checks. The target gets its shape and no data, which nothing
// reads: a later statement either skips its loop as well or stops the pass.
func (e *evalEnv) exec(s *Stmt) error {
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
	info := StmtInfo{Free: append([]string(nil), freeOrder...), Extents: extents}
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

	r := newResolver(e, freeOrder)
	lhs := make([]intFn, len(s.LHS))
	for i, le := range s.LHS {
		lhs[i] = r.index(le)
	}
	pair, isPair := s.RHS.(PairExpr)
	var rhs, rhsB valueFn
	if isPair {
		rhs, rhsB = r.value(pair.A), r.value(pair.B)
	} else {
		rhs = r.value(s.RHS)
	}

	if e.shapesOnly {
		if r.mayFail || !writesFit(s, target, extents, bounds, isPair) {
			return errNeedsValues
		}
		e.tensors[s.Name] = target
		return nil
	}

	slots := make([]int, r.slots)
	at := make([]int, len(freeOrder))
	for i := range at {
		at[i] = i
	}
	data := target.Data()
	lhsIdx := make([]int, 0, max(len(s.LHS), len(freeOrder))+1)
	for ok := first(slots, at, bounds); ok; ok = next(slots, at, bounds) {
		lhsIdx = lhsIdx[:0]
		if s.LHS != nil {
			for _, f := range lhs {
				v, err := f(slots)
				if err != nil {
					return err
				}
				lhsIdx = append(lhsIdx, v)
			}
		} else {
			lhsIdx = append(lhsIdx, slots[:len(at)]...)
		}
		if isPair {
			a, err := rhs(slots)
			if err != nil {
				return err
			}
			bv, err := rhsB(slots)
			if err != nil {
				return err
			}
			for half, v := range [2]float64{a, bv} {
				off, err := offset(target, s.Name, append(lhsIdx, half))
				if err != nil {
					return err
				}
				data[off] = v
			}
			continue
		}
		v, err := rhs(slots)
		if err != nil {
			return err
		}
		off, err := offset(target, s.Name, lhsIdx)
		if err != nil {
			return err
		}
		if s.Accumulate {
			v += data[off]
		}
		data[off] = v
	}
	e.tensors[s.Name] = target
	return nil
}

// writesFit reports whether every point's write lands in the target, for a
// statement whose explicit subscripts are bare free indices: the extent
// written along each dimension, with a pair's trailing 2, fits the target.
func writesFit(s *Stmt, target *tensor.Tensor, extents map[string]int, bounds []int, isPair bool) bool {
	written := bounds
	if s.LHS != nil {
		written = make([]int, len(s.LHS), len(s.LHS)+1)
		for d, le := range s.LHS {
			written[d] = extents[le.(IdentRef).Name]
		}
	}
	if isPair {
		written = append(written[:len(written):len(written)], 2)
	}
	shape := target.Shape()
	if len(written) != len(shape) {
		return false
	}
	for d, n := range written {
		if n > shape[d] {
			return false
		}
	}
	return true
}

// freeIndices determines the ordered free index variables of a statement:
// the explicit LHS order when subscripts are given (bare identifiers only),
// otherwise first-appearance order in the RHS.
func (e *evalEnv) freeIndices(s *Stmt) ([]string, error) {
	if s.LHS != nil {
		var order []string
		seen := make(map[string]bool)
		for _, le := range s.LHS {
			walkExpr(le, func(x Expr) {
				if id, ok := x.(IdentRef); ok && e.isIndexVar(id.Name) && !seen[id.Name] {
					seen[id.Name] = true
					order = append(order, id.Name)
				}
			})
		}
		return order, nil
	}
	// Inferred: free index vars of RHS in first-appearance order, skipping
	// sum-bound ones.
	if out := e.kernel.Output(s.Name); out != nil && len(out.Indices) > 0 {
		// Output declarations fix the order (and act as documentation).
		free := e.collectFree(s.RHS)
		freeSet := make(map[string]bool, len(free))
		for _, f := range free {
			freeSet[f] = true
		}
		if len(out.Indices) != len(free) {
			return nil, fmt.Errorf("output %q declares %d indices %v but statement has free indices %v",
				s.Name, len(out.Indices), out.Indices, free)
		}
		for _, ix := range out.Indices {
			if !freeSet[ix] {
				return nil, fmt.Errorf("output %q declares index %q not free in its defining statement", s.Name, ix)
			}
		}
		return append([]string(nil), out.Indices...), nil
	}
	return e.collectFree(s.RHS), nil
}

// collectFree returns the free (not sum-bound) index variables of an
// expression in first-appearance order.
func (e *evalEnv) collectFree(expr Expr) []string {
	var order []string
	seen := make(map[string]bool)
	var walk func(x Expr, bound map[string]bool)
	walk = func(x Expr, bound map[string]bool) {
		switch t := x.(type) {
		case IdentRef:
			if e.isIndexVar(t.Name) && !bound[t.Name] && !seen[t.Name] {
				seen[t.Name] = true
				order = append(order, t.Name)
			}
		case SubscriptExpr:
			walk(t.Base, bound)
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
	walk(expr, map[string]bool{})
	return order
}

// isIndexVar reports whether a name denotes an index variable: not a tensor,
// not a scalar parameter.
func (e *evalEnv) isIndexVar(name string) bool {
	return !e.isTensor(name) && !e.isScalar(name)
}

// inferExtents derives the extent of every index variable used in the
// statement from the subscript positions where it appears bare, including
// LHS positions against an existing target.
func (e *evalEnv) inferExtents(s *Stmt, free []string) (map[string]int, error) {
	extents := make(map[string]int)
	bind := func(name string, ext int) error {
		if prev, ok := extents[name]; ok && prev != ext {
			return fmt.Errorf("index %q constrained to both %d and %d", name, prev, ext)
		}
		extents[name] = ext
		return nil
	}

	var err error
	record := func(x Expr) {
		if err != nil {
			return
		}
		sub, ok := x.(SubscriptExpr)
		if !ok {
			return
		}
		base := sub.Base.(IdentRef)
		t, ok := e.tensors[base.Name]
		if !ok {
			err = fmt.Errorf("unknown tensor %q", base.Name)
			return
		}
		if len(sub.Indices) != t.Rank() {
			err = fmt.Errorf("tensor %q has rank %d but %d subscripts", base.Name, t.Rank(), len(sub.Indices))
			return
		}
		for d, ix := range sub.Indices {
			if id, ok := ix.(IdentRef); ok && e.isIndexVar(id.Name) {
				if berr := bind(id.Name, t.Shape()[d]); berr != nil {
					err = berr
					return
				}
			}
		}
	}
	walkExpr(s.RHS, record)
	if err != nil {
		return nil, err
	}

	// LHS subscripts against an existing target also constrain.
	if s.LHS != nil {
		if t, ok := e.tensors[s.Name]; ok {
			if len(s.LHS) != t.Rank() {
				return nil, fmt.Errorf("target %q has rank %d but %d subscripts", s.Name, t.Rank(), len(s.LHS))
			}
			for d, le := range s.LHS {
				if id, ok := le.(IdentRef); ok && e.isIndexVar(id.Name) {
					if berr := bind(id.Name, t.Shape()[d]); berr != nil {
						return nil, berr
					}
				}
			}
		}
	}

	// Every index variable referenced in the statement needs an extent.
	var missing []string
	check := func(name string) {
		if _, ok := extents[name]; !ok {
			missing = append(missing, name)
		}
	}
	for _, f := range free {
		check(f)
	}
	walkExpr(s.RHS, func(x Expr) {
		if se, ok := x.(SumExpr); ok {
			for _, ix := range se.Indices {
				check(ix)
			}
		}
	})
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("cannot infer extent of index %v: indices must appear bare in at least one subscript", missing)
	}
	return extents, nil
}

// prepareTarget returns the tensor the statement writes into, creating it
// when needed: data-less in the shape pass, zero-filled otherwise.
func (e *evalEnv) prepareTarget(s *Stmt, free []string, bounds []int) (*tensor.Tensor, error) {
	existing, exists := e.tensors[s.Name]
	_, isPair := s.RHS.(PairExpr)
	if exists {
		if s.LHS == nil && !s.Accumulate {
			// Full redefinition: fresh tensor.
			exists = false
		}
	}
	if exists {
		return existing, nil
	}
	if s.Accumulate {
		return nil, fmt.Errorf("accumulation target %q does not exist yet", s.Name)
	}
	shape := bounds
	if s.LHS != nil {
		// Creating via explicit LHS requires bare distinct index vars so the
		// shape is well-defined.
		if len(s.LHS) != len(free) {
			return nil, fmt.Errorf("cannot create %q: explicit subscripts must be bare distinct index variables", s.Name)
		}
		for i, le := range s.LHS {
			id, ok := le.(IdentRef)
			if !ok || id.Name != free[i] {
				return nil, fmt.Errorf("cannot create %q: subscript %d is not a bare index variable", s.Name, i)
			}
		}
	}
	if isPair {
		shape = append(append([]int(nil), bounds...), 2)
	}
	if e.shapesOnly {
		return tensor.Shaped(shape...), nil
	}
	return tensor.New(shape...), nil
}

// sumExtents infers the extents of a SumExpr's indices from bare appearances
// in its body.
func (e *evalEnv) sumExtents(se SumExpr) (map[string]int, error) {
	want := make(map[string]bool, len(se.Indices))
	for _, ix := range se.Indices {
		want[ix] = true
	}
	extents := make(map[string]int, len(se.Indices))
	var err error
	walkExpr(se.Body, func(x Expr) {
		if err != nil {
			return
		}
		sub, ok := x.(SubscriptExpr)
		if !ok {
			return
		}
		base := sub.Base.(IdentRef)
		t, ok := e.tensors[base.Name]
		if !ok {
			return
		}
		for d, ix := range sub.Indices {
			if d >= t.Rank() {
				return
			}
			if id, ok := ix.(IdentRef); ok && want[id.Name] {
				ext := t.Shape()[d]
				if prev, ok := extents[id.Name]; ok && prev != ext {
					err = fmt.Errorf("sum index %q constrained to both %d and %d", id.Name, prev, ext)
					return
				}
				extents[id.Name] = ext
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, ix := range se.Indices {
		if _, ok := extents[ix]; !ok {
			return nil, fmt.Errorf("cannot infer extent of sum index %q", ix)
		}
	}
	return extents, nil
}
