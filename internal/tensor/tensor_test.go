package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// identity returns the n×n identity matrix.
func identity(n int) *Tensor {
	t := New(n, n)
	for i := range n {
		t.Set(1, i, i)
	}
	return t
}

func TestNewAndIndexing(t *testing.T) {
	a := New(2, 3)
	if a.Rank() != 2 || a.Size() != 6 {
		t.Fatalf("rank/size wrong: %d %d", a.Rank(), a.Size())
	}
	a.Set(5, 1, 2)
	if a.At(1, 2) != 5 {
		t.Error("Set/At roundtrip failed")
	}
	if a.Data()[5] != 5 {
		t.Error("row-major layout broken: [1,2] should be flat index 5")
	}
}

func TestShapedCarriesNoData(t *testing.T) {
	a := Shaped(2, 3)
	if a.Rank() != 2 || a.Size() != 6 || a.HasData() || a.Data() != nil {
		t.Fatalf("Shaped(2, 3): rank %d, size %d, data %v", a.Rank(), a.Size(), a.Data())
	}
	if !New(2, 3).HasData() || !New(0).HasData() {
		t.Error("New must carry its elements, even when there are none")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on rank mismatch")
		}
	}()
	New(2, 2).At(1)
}

func TestFromDataValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad FromData length")
		}
	}()
	FromData([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	a := New(2).Fill(1)
	b := a.Clone()
	b.Set(9, 0)
	if a.At(0) != 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromData([]float64{1, 2, 3}, 3)
	b := FromData([]float64{4, 5, 6}, 3)
	if got := Add(a, b).Data(); got[0] != 5 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a).Data(); got[1] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b).Data(); got[2] != 18 {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2).Data(); got[1] != 4 {
		t.Errorf("Scale = %v", got)
	}
	if a.Sum() != 6 || !almostEqual(a.Mean(), 2, 1e-12) {
		t.Error("Sum/Mean wrong")
	}
	if a.Min() != 1 {
		t.Error("Min wrong")
	}
}

func TestIndexerCoversSpace(t *testing.T) {
	it := NewIndexer([]int{2, 3})
	var seen [][2]int
	for idx, ok := it.Next(); ok; idx, ok = it.Next() {
		seen = append(seen, [2]int{idx[0], idx[1]})
	}
	if len(seen) != 6 {
		t.Fatalf("Indexer produced %d tuples, want 6", len(seen))
	}
	if seen[0] != [2]int{0, 0} || seen[5] != [2]int{1, 2} {
		t.Errorf("Indexer order wrong: %v", seen)
	}
}

func TestIndexerScalarSpace(t *testing.T) {
	it := NewIndexer(nil)
	idx, ok := it.Next()
	if !ok || len(idx) != 0 {
		t.Fatal("rank-0 space must yield one empty tuple")
	}
	if _, ok := it.Next(); ok {
		t.Fatal("rank-0 space must yield exactly one tuple")
	}
}

func TestIndexerEmptyDim(t *testing.T) {
	it := NewIndexer([]int{2, 0})
	if _, ok := it.Next(); ok {
		t.Fatal("zero-extent dimension must yield no tuples")
	}
}

func TestEinsumMatMul(t *testing.T) {
	a := FromData([]float64{1, 2, 3, 4}, 2, 2)
	b := FromData([]float64{5, 6, 7, 8}, 2, 2)
	c := MustEinsum("ij,jk->ik", a, b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestEinsumTransposeReduceDiag(t *testing.T) {
	m := FromData([]float64{1, 2, 3, 4}, 2, 2)
	tr := MustEinsum("ij->ji", m)
	if tr.At(0, 1) != 3 {
		t.Error("transpose wrong")
	}
	sum := MustEinsum("ij->", m)
	if sum.Item() != 10 {
		t.Error("full reduction wrong")
	}
	diag := MustEinsum("ii->i", m)
	if diag.At(0) != 1 || diag.At(1) != 4 {
		t.Error("diagonal extraction wrong")
	}
	trace := MustEinsum("ii->", m)
	if trace.Item() != 5 {
		t.Error("trace wrong")
	}
}

func TestEinsumBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := Random(rng, -1, 1, 4, 3, 5)
	k := Random(rng, -1, 1, 3, 5)
	out := MustEinsum("xij,ij->x", r, k)
	// Check against manual loop.
	for x := 0; x < 4; x++ {
		want := 0.0
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				want += r.At(x, i, j) * k.At(i, j)
			}
		}
		if !almostEqual(out.At(x), want, 1e-12) {
			t.Fatalf("batched einsum mismatch at %d: %g vs %g", x, out.At(x), want)
		}
	}
}

func TestEinsumErrors(t *testing.T) {
	a := New(2, 2)
	if _, err := Einsum("ij,jk->ik", a); err == nil {
		t.Error("operand count mismatch must error")
	}
	if _, err := Einsum("ij->ik", a); err == nil {
		t.Error("unbound output index must error")
	}
	if _, err := Einsum("ij", a); err == nil {
		t.Error("missing arrow must error")
	}
	if _, err := Einsum("i1->i", a); err == nil {
		t.Error("non-letter index must error")
	}
	if _, err := Einsum("ij->ii", a); err == nil {
		t.Error("repeated output index must error")
	}
	b := New(3, 2)
	if _, err := Einsum("ij,ij->", a, b); err == nil {
		t.Error("inconsistent extents must error")
	}
	if _, err := Einsum("ijk->", a); err == nil {
		t.Error("rank mismatch must error")
	}
}

func TestEinsumMatMulAssociativityProperty(t *testing.T) {
	// Property: (AB)C == A(BC) within tolerance.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, -1, 1, 3, 4)
		b := Random(rng, -1, 1, 4, 2)
		c := Random(rng, -1, 1, 2, 5)
		left := MustEinsum("ij,jk->ik", MustEinsum("ij,jk->ik", a, b), c)
		right := MustEinsum("ij,jk->ik", a, MustEinsum("ij,jk->ik", b, c))
		return MaxAbsDiff(left, right) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEinsumLinearityProperty(t *testing.T) {
	// Property: einsum is linear in each operand.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a1 := Random(rng, -1, 1, 3, 3)
		a2 := Random(rng, -1, 1, 3, 3)
		v := Random(rng, -1, 1, 3)
		lhs := MatVec(Add(a1, a2), v)
		rhs := Add(MatVec(a1, v), MatVec(a2, v))
		return MaxAbsDiff(lhs, rhs) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDotOuter(t *testing.T) {
	a := FromData([]float64{1, 2}, 2)
	b := FromData([]float64{3, 4}, 2)
	if Dot(a, b) != 11 {
		t.Error("Dot wrong")
	}
}

func TestCholeskySolve(t *testing.T) {
	// A = [[4,2],[2,3]], b = [2,1] -> x = A^{-1} b
	a := FromData([]float64{4, 2, 2, 3}, 2, 2)
	b := FromData([]float64{2, 1}, 2)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Check residual.
	if r := MaxAbsDiff(MatVec(a, x), b); r > 1e-10 {
		t.Errorf("residual too large: %g", r)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	a := FromData([]float64{1, 2, 2, 1}, 2, 2) // indefinite
	if _, err := Cholesky(a); err == nil {
		t.Error("Cholesky must reject indefinite matrices")
	}
	if _, err := Cholesky(New(2, 3)); err == nil {
		t.Error("Cholesky must reject non-square matrices")
	}
}

func TestSolveSPDProperty(t *testing.T) {
	// Property: for random SPD A = M Mᵀ + I, solve then multiply recovers b.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Random(rng, -1, 1, 4, 4)
		a := Add(MustEinsum("ij,jk->ik", m, MustEinsum("ij->ji", m)), identity(4))
		b := Random(rng, -1, 1, 4)
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		return MaxAbsDiff(MatVec(a, x), b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInverseAndLogDet(t *testing.T) {
	a := FromData([]float64{4, 2, 2, 3}, 2, 2)
	inv, err := Inverse2(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := MustEinsum("ij,jk->ik", a, inv)
	if MaxAbsDiff(prod, identity(2)) > 1e-10 {
		t.Errorf("A * A^-1 != I: %v", prod.Data())
	}
}

func TestCovarianceAndMean(t *testing.T) {
	x := FromData([]float64{
		1, 10,
		3, 14,
	}, 2, 2)
	mu := Mean2(x)
	if mu.At(0) != 2 || mu.At(1) != 12 {
		t.Errorf("Mean2 = %v", mu.Data())
	}
	c := Covariance(x)
	if c.At(0, 0) != 1 || c.At(1, 1) != 4 || c.At(0, 1) != 2 {
		t.Errorf("Covariance = %v", c.Data())
	}
}

func TestRMSEAndMaxAbsDiff(t *testing.T) {
	a := FromData([]float64{0, 0}, 2)
	b := FromData([]float64{3, 4}, 2)
	if !almostEqual(RMSE(a, b), math.Sqrt(12.5), 1e-12) {
		t.Error("RMSE wrong")
	}
	if MaxAbsDiff(a, b) != 4 {
		t.Error("MaxAbsDiff wrong")
	}
	if !math.IsInf(MaxAbsDiff(a, New(3)), 1) {
		t.Error("shape mismatch must give +Inf")
	}
}
