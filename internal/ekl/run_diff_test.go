package ekl_test

import (
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"everest/internal/apps"
	"everest/internal/ekl"
	"everest/internal/tensor"
	"everest/internal/traffic"
	"everest/internal/variants"
	"everest/internal/wrf"
)

// Kernel.Run resolves each statement once into slot-indexed closures; these
// tests hold it to the tree-walking evaluator it replaced (ekl.RefRun) bit
// for bit, error text for error text.

// The two write paths the tree walk did not range-check: an explicit LHS
// subscript that leaves the target, and a bare += whose iteration space
// differs from the target it accumulates into.
const (
	shiftSrc = "kernel shift {\n  input a : [N]\n  y = a[i]\n  y[i + 1] = a[i]\n  output y\n}\n"
	growSrc  = "kernel grow {\n  input a : [4]\n  input b : [8]\n  y = a[i]\n  y += b[i]\n  output y\n}\n"
)

// realKernel is one built-in kernel at the binding it is compiled against.
type realKernel struct {
	name    string
	src     string
	binding ekl.Binding
}

func realKernels(t testing.TB) []realKernel {
	t.Helper()
	var ks []realKernel
	for _, name := range variants.ExampleNames() {
		src, b, err := variants.ExampleKernel(name)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, realKernel{name, src, b})
	}
	kmeans := map[string]int{"N": 256, "D": 4, "K": 8, "P": 4}
	for _, src := range []string{apps.KMeansAssignEKL(), apps.KMeansPartialEKL(), apps.KMeansUpdateEKL()} {
		k := mustParse(t, src)
		ks = append(ks, realKernel{k.Name, src, variants.SynthesizeBinding(k, kmeans)})
	}
	net := traffic.GridNetwork(6, 6, 200, 1)
	trip, err := traffic.SimulateTrip(net, 7, 10, 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	ks = append(ks,
		realKernel{"traffic_projection", traffic.ProjectionEKL(), traffic.ProjectionBinding(net, trip.Points)},
		realKernel{"rrtmg", wrf.EKLSource(), wrf.NewRadiation(11, 8).EKLBinding(11, 24)})
	return ks
}

func mustParse(t testing.TB, src string) *ekl.Kernel {
	t.Helper()
	k, err := ekl.ParseKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// sameRun fails t unless Run's outcome matches the oracle's: the same
// error text, or bit-identical tensors, dims and trace.
func sameRun(t *testing.T, got, want *ekl.Result, gotErr, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference %v", gotErr, wantErr)
		}
		return
	}
	if len(got.All) != len(want.All) || len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%d tensors (%d outputs), reference %d (%d)", len(got.All), len(got.Outputs), len(want.All), len(want.Outputs))
	}
	for name, w := range want.All {
		g := got.All[name]
		if g == nil || !reflect.DeepEqual(g.Shape(), w.Shape()) {
			t.Fatalf("tensor %q: shape %v, reference %v", name, g, w.Shape())
		}
		for i, v := range w.Data() {
			if math.Float64bits(g.Data()[i]) != math.Float64bits(v) {
				t.Fatalf("tensor %q element %d: %v, reference %v", name, i, g.Data()[i], v)
			}
		}
	}
	if !reflect.DeepEqual(got.Dims, want.Dims) {
		t.Fatalf("dims %v, reference %v", got.Dims, want.Dims)
	}
	if !reflect.DeepEqual(got.Trace, want.Trace) {
		t.Fatalf("trace %+v, reference %+v", got.Trace, want.Trace)
	}
}

func TestRunMatchesReference(t *testing.T) {
	for _, rk := range realKernels(t) {
		t.Run(rk.name, func(t *testing.T) {
			k := mustParse(t, rk.src)
			got, gotErr := k.Run(rk.binding)
			want, wantErr := ekl.RefRun(k, rk.binding)
			if wantErr != nil {
				t.Fatalf("reference: %v", wantErr)
			}
			sameRun(t, got, want, gotErr, wantErr)
		})
	}
}

func TestRunAllocsIndependentOfSize(t *testing.T) {
	k := mustParse(t, apps.KMeansAssignEKL())
	allocs := func(n int) float64 {
		b := variants.SynthesizeBinding(k, map[string]int{"N": n, "D": 4, "K": 8})
		return testing.AllocsPerRun(5, func() {
			if _, err := k.Run(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(1024); small != large {
		t.Errorf("kmeans_assign: %v allocs/run at N=64, %v at N=1024: something allocates per point", small, large)
	}
}

func TestRunRejectsOutOfRangeWrites(t *testing.T) {
	vec := func(n int) *tensor.Tensor { return tensor.New(n) }
	for _, c := range []struct {
		name, src string
		tensors   map[string]*tensor.Tensor
		want      string
	}{
		{"explicit LHS leaves the target", shiftSrc,
			map[string]*tensor.Tensor{"a": vec(16)},
			`line 4: index 16 out of range [0,16) in dim 0 of "y"`},
		{"+= over a longer space", growSrc,
			map[string]*tensor.Tensor{"a": vec(4), "b": vec(8)},
			`line 5: index 4 out of range [0,4) in dim 0 of "y"`},
		{"+= over a higher rank",
			"kernel k {\n  input a : [4]\n  input c : [4, 4]\n  y = a[i]\n  y += c[i, j]\n  output y\n}\n",
			map[string]*tensor.Tensor{"a": vec(4), "c": tensor.New(4, 4)},
			`line 5: target "y" has rank 1 but 2 subscripts`},
		{"pair into an explicit LHS",
			"kernel k {\n  input a : [4]\n  y = [a[i], a[i]]\n  y[i, j] = [a[i], a[i]]\n  output y\n}\n",
			map[string]*tensor.Tensor{"a": vec(4)},
			`line 4: target "y" has rank 2 but 3 subscripts`},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := mustParse(t, c.src).Run(ekl.Binding{Tensors: c.tensors})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want one containing %s", err, c.want)
			}
		})
	}
}

// FuzzRun: Run never panics, errors wherever the tree walk panicked, and
// otherwise matches it exactly.
func FuzzRun(f *testing.F) {
	ekl.FuzzSeeds(f)
	for _, rk := range realKernels(f) {
		f.Add(rk.src)
	}
	f.Add(shiftSrc)
	f.Add(growSrc)
	// Scoping corners: a sum index shadowing a free index and then the free
	// index read again, a repeated sum index, and a sum index the same name
	// as an enclosing sum's.
	f.Add("kernel shadow {\n  input a : [4]\n  input m : [4, 4]\n  y = a[i] * sum(i) m[i, i] + a[i] * i\n  output y\n}\n")
	f.Add("kernel dup {\n  input m : [3, 3]\n  y = sum(i, i) m[i, i] * i\n  output y\n}\n")
	f.Add("kernel nest {\n  input a : [5]\n  y = sum(i) a[i] * sum(i) a[i] * i + i\n  output y\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ekl.Parse(src)
		if err != nil {
			return
		}
		for _, k := range prog.Kernels {
			b, ok := fuzzBinding(k)
			if !ok {
				continue
			}
			want, panicked, wantErr := refRunRecover(k, b)
			got, gotErr := runNoPanic(t, k, b)
			if panicked {
				if gotErr == nil {
					t.Fatalf("reference panicked but Run succeeded on\n%s", k.Source())
				}
				continue
			}
			sameRun(t, got, want, gotErr, wantErr)
		}
	})
}

func refRunRecover(k *ekl.Kernel, b ekl.Binding) (res *ekl.Result, panicked bool, err error) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	res, err = ekl.RefRun(k, b)
	return res, false, err
}

func runNoPanic(t *testing.T, k *ekl.Kernel, b ekl.Binding) (*ekl.Result, error) {
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Run panicked: %v on\n%s", p, k.Source())
		}
	}()
	return k.Run(b)
}

// fuzzBinding builds a small deterministic binding for k: each symbolic
// dimension gets an extent in [1,5] from its name, value tensors get
// seeded values in [-4,4] (integral a fifth of the time, so computed
// subscripts hit both the integral and the rejected path), index tensors
// zeros, and parameters their defaults. It reports false for kernels too
// large to interpret twice per input: a literal dimension above 8, or a
// statement with more than six index positions (every sum index counts).
func fuzzBinding(k *ekl.Kernel) (ekl.Binding, bool) {
	b := ekl.Binding{Tensors: map[string]*tensor.Tensor{}, Scalars: map[string]float64{}}
	declared := map[string]bool{}
	seed := uint64(0x9e3779b97f4a7c15)
	for _, in := range k.Inputs {
		declared[in.Name] = true
		shape := make([]int, len(in.Dims))
		for i, d := range in.Dims {
			if d.Sym == "" {
				if d.Size > 8 {
					return b, false
				}
				shape[i] = d.Size
				continue
			}
			h := fnv.New32a()
			h.Write([]byte(d.Sym))
			shape[i] = 1 + int(h.Sum32()%5)
		}
		t := tensor.New(shape...)
		if !in.IsIndex {
			for i := range t.Data() {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				t.Data()[i] = float64(int(seed%161)-80) / 20
			}
		}
		b.Tensors[in.Name] = t
	}
	for _, p := range k.Params {
		declared[p.Name] = true
		switch {
		case p.HasDef:
			b.Scalars[p.Name] = p.Default
		case p.IsInt:
			b.Scalars[p.Name] = 1
		default:
			b.Scalars[p.Name] = 0.5
		}
	}
	for _, s := range k.Stmts {
		names := map[string]bool{}
		sums := 0
		var walk func(e ekl.Expr)
		walk = func(e ekl.Expr) {
			switch x := e.(type) {
			case ekl.IdentRef:
				if !declared[x.Name] {
					names[x.Name] = true
				}
			case ekl.SubscriptExpr:
				walk(x.Base)
				for _, ix := range x.Indices {
					walk(ix)
				}
			case ekl.BinaryExpr:
				walk(x.L)
				walk(x.R)
			case ekl.UnaryExpr:
				walk(x.X)
			case ekl.CallExpr:
				for _, a := range x.Args {
					walk(a)
				}
			case ekl.SumExpr:
				sums += len(x.Indices)
				walk(x.Body)
			case ekl.PairExpr:
				walk(x.A)
				walk(x.B)
			}
		}
		walk(s.RHS)
		for _, le := range s.LHS {
			walk(le)
		}
		if len(names)+sums > 6 {
			return b, false
		}
	}
	return b, true
}
