package energy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"everest/internal/tensor"
)

// refKRR is the tensor-based KRR the flat, incremental one replaced, kept
// verbatim as the reference the new code must match bit for bit: dense
// n×n Gram through rowOf and tensor.At/Set. Fit scales each column by its
// own max-abs and solves for the dual coefficients with tensor.SolveSPD.
// Its lagged series takes Append and Trim like KRR's, and FitLagged
// refits it cold every time: it materializes the lag windows, scales
// them all by the max-abs of the whole matrix (the one-scale rule of
// KRR.FitLagged), and keeps
// the dense Cholesky factor L of SolveSPD's jitter ladder with the
// forward solves u = L⁻¹y and v = L⁻¹1; its Predict forward-solves the
// kernel vector, w = L⁻¹k, and returns ȳ + w·(u − ȳv), in KRR's
// operation order.
type refKRR struct {
	Lambda, Gamma float64
	x             *tensor.Tensor
	alpha         *tensor.Tensor // dual coefficients (Fit)
	l             *tensor.Tensor // Cholesky factor of K+λI (FitLagged)
	u, v          []float64      // L⁻¹y and L⁻¹1 (FitLagged)
	yMean         float64
	scale         []float64
	series        []float64 // the lagged series (Append, Trim)
}

func (k *refKRR) Append(v float64) { k.series = append(k.series, v) }

func (k *refKRR) Trim(n int) {
	if len(k.series) > n {
		k.series = append([]float64(nil), k.series[len(k.series)-n:]...)
	}
}

func (k *refKRR) Fit(x *tensor.Tensor, y []float64) error {
	if x.Rank() != 2 || x.Shape()[0] != len(y) {
		return fmt.Errorf("energy: KRR training shape mismatch")
	}
	n, d := x.Shape()[0], x.Shape()[1]
	if n < 2 {
		return fmt.Errorf("energy: KRR needs at least 2 samples")
	}
	scale := make([]float64, d)
	for j := 0; j < d; j++ {
		m := 0.0
		for i := 0; i < n; i++ {
			m = math.Max(m, math.Abs(x.At(i, j)))
		}
		if m == 0 {
			m = 1
		}
		scale[j] = m
	}
	return k.fitScaled(x, y, scale, false)
}

// FitLagged fits row i = series[i:i+lag], target series[i+lag], with every
// column scaled by the max-abs of all the rows' values.
func (k *refKRR) FitLagged(lag int) error {
	series := k.series
	n := len(series) - lag
	if n < 2 {
		return fmt.Errorf("energy: KRR needs at least 2 samples")
	}
	x := tensor.New(n, lag)
	m := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < lag; j++ {
			x.Set(series[i+j], i, j)
			m = math.Max(m, math.Abs(x.At(i, j)))
		}
	}
	if m == 0 {
		m = 1
	}
	scale := make([]float64, lag)
	for j := range scale {
		scale[j] = m
	}
	return k.fitScaled(x, series[lag:], scale, true)
}

func (k *refKRR) fitScaled(x *tensor.Tensor, y []float64, scale []float64, lagged bool) error {
	n, d := x.Shape()[0], x.Shape()[1]
	k.scale = scale
	xs := tensor.New(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			xs.Set(x.At(i, j)/k.scale[j], i, j)
		}
	}
	k.x = xs

	k.yMean = 0
	for _, v := range y {
		k.yMean += v
	}
	k.yMean /= float64(n)

	gram := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.rbf(rowOf(xs, i), rowOf(xs, j))
			gram.Set(v, i, j)
			gram.Set(v, j, i)
		}
		gram.Set(gram.At(i, i)+k.Lambda, i, i)
	}
	if lagged {
		l, err := choleskyJittered(gram)
		if err != nil {
			return fmt.Errorf("energy: KRR solve: %w", err)
		}
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		k.l, k.u, k.v = l, forwardSub(l, y), forwardSub(l, ones)
		return nil
	}
	rhs := tensor.New(n)
	for i, v := range y {
		rhs.Set(v-k.yMean, i)
	}
	alpha, err := tensor.SolveSPD(gram, rhs)
	if err != nil {
		return fmt.Errorf("energy: KRR solve: %w", err)
	}
	k.alpha = alpha
	return nil
}

// choleskyJittered is tensor.SolveSPD's jitter ladder, returning the
// factor instead of a solution.
func choleskyJittered(a *tensor.Tensor) (*tensor.Tensor, error) {
	n := a.Shape()[0]
	work := a.Clone()
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		l, err := tensor.Cholesky(work)
		if err == nil {
			return l, nil
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
	return nil, fmt.Errorf("not positive definite even with jitter %.3g", jitter)
}

// forwardSub solves L z = b, the forward half of tensor.CholeskySolve.
func forwardSub(l *tensor.Tensor, b []float64) []float64 {
	z := make([]float64, len(b))
	for i := range z {
		s := b[i]
		for c := 0; c < i; c++ {
			s -= l.At(i, c) * z[c]
		}
		z[i] = s / l.At(i, i)
	}
	return z
}

func (k *refKRR) rbf(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-k.Gamma * s)
}

func (k *refKRR) Predict(feat []float64) (float64, error) {
	if k.alpha == nil && k.l == nil {
		return 0, fmt.Errorf("energy: KRR not fitted")
	}
	if len(feat) != len(k.scale) {
		return 0, fmt.Errorf("energy: KRR expects %d features, got %d", len(k.scale), len(feat))
	}
	fs := make([]float64, len(feat))
	for j, v := range feat {
		fs[j] = v / k.scale[j]
	}
	n := k.x.Shape()[0]
	out := k.yMean
	if k.l != nil {
		kv := make([]float64, n)
		for i := 0; i < n; i++ {
			kv[i] = k.rbf(fs, rowOf(k.x, i))
		}
		w := forwardSub(k.l, kv)
		for i := 0; i < n; i++ {
			out += w[i] * (k.u[i] - k.yMean*k.v[i])
		}
		return out, nil
	}
	for i := 0; i < n; i++ {
		out += k.alpha.At(i) * k.rbf(fs, rowOf(k.x, i))
	}
	return out, nil
}

func rowOf(x *tensor.Tensor, i int) []float64 {
	d := x.Shape()[1]
	row := make([]float64, d)
	for j := 0; j < d; j++ {
		row[j] = x.At(i, j)
	}
	return row
}

// TestKRRMatchesReference fits the reference and the flat KRR on random
// matrices — zero columns (scale 1), mixed magnitudes, and duplicate rows
// under λ=0 that drive the jitter ladder — and requires the same error
// outcome and bitwise-equal predictions.
func TestKRRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	jittered := 0
	for trial := 0; trial < 60; trial++ {
		n, d := 2+rng.Intn(40), 1+rng.Intn(9)
		lambda, gamma := 0.01, 0.05
		switch trial % 4 {
		case 1:
			lambda, gamma = 1e-6, 1
		case 2:
			lambda, gamma = 0, 0.5
		}
		x := tensor.New(n, d)
		y := make([]float64, n)
		zeroCol := rng.Intn(d + 1) // == d: no all-zero column
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				if j != zeroCol {
					x.Set(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(5)-2)), i, j)
				}
			}
			y[i] = rng.NormFloat64() * 100
		}
		if lambda == 0 {
			// Row n-1 duplicates row 0: K is singular without jitter.
			for j := 0; j < d; j++ {
				x.Set(x.At(0, j), n-1, j)
			}
		}
		ref := &refKRR{Lambda: lambda, Gamma: gamma}
		got := NewKRR(lambda, gamma)
		refErr, gotErr := ref.Fit(x, y), got.Fit(x, y)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: reference error %v, flat error %v", trial, refErr, gotErr)
		}
		if gotErr != nil {
			continue
		}
		if !got.exact {
			jittered++
		}
		for q := 0; q < 5; q++ {
			feat := make([]float64, d)
			for j := range feat {
				feat[j] = x.At(rng.Intn(n), j) + rng.NormFloat64()*0.1
			}
			want, _ := ref.Predict(feat)
			have, err := got.Predict(feat)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(have) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d d=%d λ=%g γ=%g): predict = %v, reference %v", trial, n, d, lambda, gamma, have, want)
			}
		}
	}
	if jittered == 0 {
		t.Fatal("no trial exercised the jitter ladder")
	}
}

// TestKRRFitLaggedMatchesReference draws series over the shapes of
// TestKRRMatchesReference (n rows, lag = d) and fits them in place with
// FitLagged, which must match the reference's one-scale FitLagged: the
// same error outcome, bitwise-equal forward solves u and v, and
// bitwise-equal predictions, the same bits again when Predict is asked
// twice. FitRows on the materialized lag windows must still match the
// reference's per-column Fit. Under λ=0 the last window repeats the
// first, so K is singular without jitter.
func TestKRRFitLaggedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	jittered, scalesDiffer := 0, 0
	for trial := 0; trial < 60; trial++ {
		n, lag := 2+rng.Intn(40), 1+rng.Intn(9)
		lambda, gamma := 0.01, 0.05
		switch trial % 4 {
		case 1:
			lambda, gamma = 1e-6, 1
		case 2:
			lambda, gamma = 0, 0.5
		}
		series := make([]float64, n+lag)
		for i := range series {
			series[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		if lambda == 0 {
			copy(series[n-1:n-1+lag], series[:lag])
		}
		x := tensor.New(n, lag)
		for i := 0; i < n; i++ {
			for j := 0; j < lag; j++ {
				x.Set(series[i+j], i, j)
			}
		}
		y := series[lag:]
		ref, refRows := &refKRR{Lambda: lambda, Gamma: gamma, series: series}, &refKRR{Lambda: lambda, Gamma: gamma}
		rows := NewKRR(lambda, gamma)
		got := laggedKRR(lambda, gamma, series)
		refErr, refRowsErr := ref.FitLagged(lag), refRows.Fit(x, y)
		rowsErr, gotErr := rows.FitRows(x.Data(), n, lag, y), got.FitLagged(lag)
		if (refErr == nil) != (gotErr == nil) || (refRowsErr == nil) != (rowsErr == nil) {
			t.Fatalf("trial %d: reference FitLagged error %v, FitLagged error %v; reference Fit error %v, FitRows error %v",
				trial, refErr, gotErr, refRowsErr, rowsErr)
		}
		if gotErr != nil {
			continue
		}
		if !got.exact {
			jittered++
		}
		if !sameBits(ref.scale, refRows.scale) {
			scalesDiffer++
		}
		if u, v := lagVec(got, vecU), lagVec(got, vecV); !sameBits(u, ref.u) || !sameBits(v, ref.v) {
			t.Fatalf("trial %d (n=%d lag=%d λ=%g γ=%g): u = %v, v = %v; reference u = %v, v = %v",
				trial, n, lag, lambda, gamma, u, v, ref.u, ref.v)
		}
		for q := 0; q < 5; q++ {
			feat := make([]float64, lag)
			for j := range feat {
				feat[j] = x.At(rng.Intn(n), j) + rng.NormFloat64()*0.1
			}
			want, _ := ref.Predict(feat)
			have, err := got.Predict(feat)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(have) != math.Float64bits(want) {
				t.Fatalf("trial %d (n=%d lag=%d λ=%g γ=%g): FitLagged predict = %v, reference %v",
					trial, n, lag, lambda, gamma, have, want)
			}
			// Predict forward-solves its kernel vector into w; asking
			// again must not read what the first call left there.
			if again, _ := got.Predict(feat); math.Float64bits(again) != math.Float64bits(have) {
				t.Fatalf("trial %d: a second Predict on the same features = %v, first %v", trial, again, have)
			}
			if rowsErr != nil {
				continue
			}
			wantRows, _ := refRows.Predict(feat)
			haveRows, _ := rows.Predict(feat)
			if math.Float64bits(haveRows) != math.Float64bits(wantRows) {
				t.Fatalf("trial %d (n=%d lag=%d λ=%g γ=%g): FitRows predict = %v, reference %v",
					trial, n, lag, lambda, gamma, haveRows, wantRows)
			}
		}
	}
	if jittered == 0 {
		t.Fatal("no trial exercised the jitter ladder")
	}
	if scalesDiffer == 0 {
		t.Fatal("no trial told the one-scale rule from per-column scales")
	}
}

// TestBacktestMatchesReference pins E12: the KRR MAE Backtest reports on
// E12's data set and split equals, bit for bit, the MAE of the reference
// regressor, so the E12 table cannot drift.
func TestBacktestMatchesReference(t *testing.T) {
	ds := SynthesizeYear(7, 1600, NewFarm(12))
	res, err := Backtest(ds, 0.6, DefaultKRR())
	if err != nil {
		t.Fatal(err)
	}
	n := len(ds.Samples)
	split := int(float64(n) * 0.6)
	d := len(Features(ds.Farm, ds.Samples[0]))
	x := tensor.New(split, d)
	y := make([]float64, split)
	for i := 0; i < split; i++ {
		for j, v := range Features(ds.Farm, ds.Samples[i]) {
			x.Set(v, i, j)
		}
		y[i] = ds.Samples[i].PowerKW
	}
	ref := &refKRR{Lambda: 0.01, Gamma: 0.05}
	if err := ref.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	mae := 0.0
	for i := split; i < n; i++ {
		p, err := ref.Predict(Features(ds.Farm, ds.Samples[i]))
		if err != nil {
			t.Fatal(err)
		}
		mae += math.Abs(p - ds.Samples[i].PowerKW)
	}
	mae /= float64(n - split)
	if math.Float64bits(res.MAEKRR) != math.Float64bits(mae) {
		t.Fatalf("Backtest KRR MAE %v, reference %v", res.MAEKRR, mae)
	}
}
