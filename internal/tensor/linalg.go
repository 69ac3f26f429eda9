package tensor

import (
	"fmt"
	"math"
)

// Cholesky computes the lower-triangular factor L of a symmetric positive
// definite matrix A = L Lᵀ. It returns an error if A is not SPD (within
// numerical tolerance), which callers like kernel ridge regression handle by
// raising the regularization.
func Cholesky(a *Tensor) (*Tensor, error) {
	n, err := squareDim(a)
	if err != nil {
		return nil, err
	}
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("tensor: matrix not positive definite at pivot %d (%.3g)", i, sum)
				}
				l.Set(math.Sqrt(sum), i, j)
			} else {
				l.Set(sum/l.At(j, j), i, j)
			}
		}
	}
	return l, nil
}

// CholeskySolve solves A x = b given the Cholesky factor L of A, via forward
// then backward substitution.
func CholeskySolve(l, b *Tensor) *Tensor {
	n := l.Shape()[0]
	// Forward: L y = b.
	y := New(n)
	for i := 0; i < n; i++ {
		s := b.At(i)
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y.At(k)
		}
		y.Set(s/l.At(i, i), i)
	}
	// Backward: Lᵀ x = y.
	x := New(n)
	for i := n - 1; i >= 0; i-- {
		s := y.At(i)
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x.At(k)
		}
		x.Set(s/l.At(i, i), i)
	}
	return x
}

// SolveSPD solves A x = b for symmetric positive definite A. If A is not
// SPD, jitter is added to the diagonal geometrically until factorization
// succeeds (up to 8 attempts).
func SolveSPD(a, b *Tensor) (*Tensor, error) {
	n, err := squareDim(a)
	if err != nil {
		return nil, err
	}
	work := a.Clone()
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		l, err := Cholesky(work)
		if err == nil {
			return CholeskySolve(l, b), nil
		}
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
		work = a.Clone()
		for i := 0; i < n; i++ {
			work.Set(work.At(i, i)+jitter, i, i)
		}
	}
	return nil, fmt.Errorf("tensor: SolveSPD failed even with jitter %.3g", jitter)
}

// Mean2 returns the per-column mean of a rank-2 tensor (rows are samples).
func Mean2(x *Tensor) *Tensor {
	rows, cols := x.Shape()[0], x.Shape()[1]
	m := New(cols)
	if rows == 0 {
		return m
	}
	for j := 0; j < cols; j++ {
		s := 0.0
		for i := 0; i < rows; i++ {
			s += x.At(i, j)
		}
		m.Set(s/float64(rows), j)
	}
	return m
}

// Covariance returns the (biased) covariance matrix of a rank-2 sample
// matrix (rows are samples, columns features).
func Covariance(x *Tensor) *Tensor {
	rows, cols := x.Shape()[0], x.Shape()[1]
	mu := Mean2(x)
	c := New(cols, cols)
	if rows == 0 {
		return c
	}
	for i := 0; i < rows; i++ {
		for a := 0; a < cols; a++ {
			da := x.At(i, a) - mu.At(a)
			for b := 0; b < cols; b++ {
				db := x.At(i, b) - mu.At(b)
				c.Set(c.At(a, b)+da*db/float64(rows), a, b)
			}
		}
	}
	return c
}

// Inverse2 inverts a symmetric positive definite matrix via Cholesky,
// column by column. Used by the Mahalanobis anomaly detector and GMM.
func Inverse2(a *Tensor) (*Tensor, error) {
	n, err := squareDim(a)
	if err != nil {
		return nil, err
	}
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	inv := New(n, n)
	e := New(n)
	for j := 0; j < n; j++ {
		e.Fill(0)
		e.Set(1, j)
		col := CholeskySolve(l, e)
		for i := 0; i < n; i++ {
			inv.Set(col.At(i), i, j)
		}
	}
	return inv, nil
}

func squareDim(a *Tensor) (int, error) {
	if a.Rank() != 2 || a.Shape()[0] != a.Shape()[1] {
		return 0, fmt.Errorf("tensor: want square matrix, got shape %v", a.Shape())
	}
	return a.Shape()[0], nil
}
