package ekl_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"sort"
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

// allocBytes returns the heap bytes one call of f allocates, averaged over
// a few calls after a warm-up.
func allocBytes(f func()) int64 {
	const calls = 4
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestCompileBytesIndependentOfSize: synthesizing a binding and lowering a
// proven kernel carry shapes only, so neither allocates with the data.
func TestCompileBytesIndependentOfSize(t *testing.T) {
	k := mustParse(t, apps.KMeansAssignEKL())
	extents := func(n int) map[string]int { return map[string]int{"N": n, "D": 4, "K": 8} }
	const slack = 64 << 10
	synth := func(n int) int64 {
		return allocBytes(func() { variants.SynthesizeBinding(k, extents(n)) })
	}
	if small, large := synth(64), synth(65536); large-small >= slack {
		t.Errorf("SynthesizeBinding: %d B at N=64, %d B at N=65536: it allocates with the data", small, large)
	}
	lower := func(n int) int64 {
		b := variants.SynthesizeBinding(k, extents(n))
		return allocBytes(func() {
			if _, _, err := ekl.Lower(k, b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := lower(64), lower(65536); large-small >= slack {
		t.Errorf("Lower: %d B at N=64, %d B at N=65536: it allocates with the data", small, large)
	}
}

// TestSynthesizedRunPinned pins the values Run creates for a synthesized
// binding: the hash of every tensor's bits, inputs included, as read when
// SynthesizeBinding still filled the inputs itself. Run leaves the
// binding data-less.
func TestSynthesizedRunPinned(t *testing.T) {
	k := mustParse(t, apps.KMeansAssignEKL())
	b := variants.SynthesizeBinding(k, map[string]int{"N": 256, "D": 4, "K": 8})
	res, err := k.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(res.All))
	for name := range res.All {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var word [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range res.All[name].Data() {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "1cf423f6cae2c402"; got != want {
		t.Errorf("kmeans_assign on its synthesized binding hashes to %s, want %s", got, want)
	}
	for name, in := range b.Tensors {
		if in.HasData() {
			t.Errorf("Run wrote values into the binding's %q", name)
		}
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

// TestLowerPaths pins which built-in kernels Lower specializes from the
// shape pass alone and which it runs: a kernel that silently fell back to
// Run would compile orders of magnitude slower and pass every other test.
func TestLowerPaths(t *testing.T) {
	proven := map[string]bool{
		"airquality": true, "windpower": true,
		"kmeans_assign": true, "kmeans_partial": true, "kmeans_update": true,
		"traffic_projection": true,
		"rrtmg":              false, // gathers: its subscripts are data
	}
	for _, rk := range realKernels(t) {
		want, ok := proven[rk.name]
		if !ok {
			t.Errorf("%s: no expected lowering path", rk.name)
			continue
		}
		delete(proven, rk.name)
		_, got, err := ekl.InferShapes(mustParse(t, rk.src), rk.binding)
		if err != nil {
			t.Fatalf("%s: %v", rk.name, err)
		}
		if got != want {
			t.Errorf("%s: shape pass proved it %v, want %v", rk.name, got, want)
		}
	}
	for name := range proven {
		t.Errorf("%s: not among the built-in kernels", name)
	}
}

// TestLowerEmptySpace: a deferred failure in an empty iteration space is
// not proven, so Lower runs the kernel, which succeeds as Run does.
func TestLowerEmptySpace(t *testing.T) {
	k := mustParse(t, "kernel empty {\n  input a : [N]\n  input b : [3]\n  y = a[i] * b\n  output y\n}\n")
	b := ekl.Binding{Tensors: map[string]*tensor.Tensor{"a": tensor.New(0), "b": tensor.New(3)}}
	res, err := k.Run(b)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, proven, err := ekl.InferShapes(k, b); proven || err != nil {
		t.Fatalf("shape pass proved %v with error %v, want a fallback", proven, err)
	}
	_, sh, err := ekl.Lower(k, b)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if want := ekl.SpecializedShapes(res); !reflect.DeepEqual(sh, want) {
		t.Fatalf("Lower shapes %+v, Run %+v", sh, want)
	}
}

// FuzzRun: Run never panics, errors wherever the tree walk panicked, and
// otherwise matches it exactly. Lower's shape pass agrees with Run: where it
// errors, Run errors with the same text, and where it proves a kernel, Run
// succeeds with the same shapes, dims and trace, which Lower also returns
// from a data-less copy of the binding.
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
	// Shape pass corners: a deferred failure (the parser builds no unknown
	// function, so a bare tensor read; TestLowerEmptySpace has it in an
	// empty space, which no literal dimension or fuzz extent gives), a
	// scalar parameter as a subscript, an explicit LHS and a += into an
	// existing larger target, and a += into a pair target.
	f.Add("kernel empty {\n  input a : [N]\n  input b : [3]\n  y = a[i] * b\n  output y\n}\n")
	f.Add("kernel par {\n  iparam n = 1\n  input m : [4, 3]\n  y = m[i, n]\n  output y\n}\n")
	f.Add("kernel lhs {\n  input a : [3]\n  input b : [5]\n  y = b[j]\n  y[i] = a[i]\n  output y\n}\n")
	f.Add("kernel part {\n  input a : [3]\n  input b : [5]\n  y = b[j]\n  y += a[i]\n  output y\n}\n")
	f.Add("kernel pairacc {\n  input a : [3]\n  y = [a[i], -a[i]]\n  y += [a[i], a[i] * 2]\n  output y\n}\n")
	// Writes that leave the target, which the shape pass must not prove: a
	// += one point longer than its target, a += of a higher rank, and a
	// pair into an explicit LHS.
	f.Add("kernel over {\n  input a : [4]\n  input b : [5]\n  y = a[i]\n  y += b[i]\n  output y\n}\n")
	f.Add("kernel rank {\n  input a : [4]\n  input c : [4, 4]\n  y = a[i]\n  y += c[i, j]\n  output y\n}\n")
	f.Add("kernel pairlhs {\n  input a : [4]\n  y = [a[i], a[i]]\n  y[i, j] = [a[i], a[i]]\n  output y\n}\n")
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
			checkShapePass(t, k, b, got, gotErr)
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

// checkShapePass fails t unless the shape pass agrees with Run's outcome.
func checkShapePass(t *testing.T, k *ekl.Kernel, b ekl.Binding, got *ekl.Result, gotErr error) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("shape pass panicked: %v on\n%s", p, k.Source())
		}
	}()
	sh, proven, err := ekl.InferShapes(k, b)
	switch {
	case err != nil:
		if gotErr == nil || gotErr.Error() != err.Error() {
			t.Fatalf("shape pass error %v, Run error %v on\n%s", err, gotErr, k.Source())
		}
	case proven && gotErr != nil:
		t.Fatalf("shape pass proved a kernel Run rejects with %v:\n%s", gotErr, k.Source())
	case proven:
		want := ekl.SpecializedShapes(got)
		if !reflect.DeepEqual(sh, want) {
			t.Fatalf("shape pass %+v, Run %+v on\n%s", sh, want, k.Source())
		}
		shaped := ekl.Binding{Tensors: map[string]*tensor.Tensor{}, Scalars: b.Scalars}
		for name, in := range b.Tensors {
			shaped.Tensors[name] = tensor.Shaped(in.Shape()...)
		}
		if _, lsh, err := ekl.Lower(k, shaped); err != nil || !reflect.DeepEqual(lsh, want) {
			t.Fatalf("Lower from shapes %+v (error %v), Run %+v on\n%s", lsh, err, want, k.Source())
		}
	}
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
