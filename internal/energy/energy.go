// Package energy implements the renewable-energy prediction use case (paper
// §II-B): forecasting the power generated by a wind farm from WRF-derived
// weather forecasts plus historical farm data, using Kernel Ridge Regression
// ("the current version of the application uses the Kernel Ridge
// algorithm"), evaluated in a backtesting scenario (§VIII).
package energy

import (
	"fmt"
	"math"
	"math/rand"

	"everest/internal/tensor"
)

// Turbine is one wind turbine's power curve.
type Turbine struct {
	CutInMS   float64 // below: no power
	RatedMS   float64 // above: rated power
	CutOutMS  float64 // above: shutdown
	RatedKW   float64
	Available bool
}

// Power returns the produced power (kW) at hub-height wind speed ws.
func (t Turbine) Power(ws float64) float64 {
	if !t.Available || ws < t.CutInMS || ws >= t.CutOutMS {
		return 0
	}
	if ws >= t.RatedMS {
		return t.RatedKW
	}
	// Cubic region between cut-in and rated.
	frac := (ws*ws*ws - t.CutInMS*t.CutInMS*t.CutInMS) /
		(t.RatedMS*t.RatedMS*t.RatedMS - t.CutInMS*t.CutInMS*t.CutInMS)
	return t.RatedKW * frac
}

// Farm is a wind farm: turbines plus site effects.
type Farm struct {
	Turbines []Turbine
	// HeightShear scales the 10m forecast wind to hub height (power law).
	HeightShear float64
}

// NewFarm builds a uniform farm of n 2MW turbines.
func NewFarm(n int) *Farm {
	f := &Farm{HeightShear: 1.34} // (100m/10m)^0.143 power-law factor
	for i := 0; i < n; i++ {
		f.Turbines = append(f.Turbines, Turbine{
			CutInMS: 3, RatedMS: 12, CutOutMS: 25, RatedKW: 2000, Available: true,
		})
	}
	return f
}

// Power returns farm output (kW) for a 10m wind speed.
func (f *Farm) Power(ws10 float64) float64 {
	hub := ws10 * f.HeightShear
	total := 0.0
	for _, t := range f.Turbines {
		total += t.Power(hub)
	}
	return total
}

// Sample is one hourly observation of the backtesting data set.
type Sample struct {
	Hour         int     // hour index from epoch
	ForecastWS   float64 // WRF-forecast 10m wind speed (m/s)
	ForecastDir  float64 // forecast wind direction (rad)
	PowerKW      float64 // measured farm output
	Availability float64 // fraction of turbines available
}

// Dataset is one year (or any span) of hourly samples.
type Dataset struct {
	Farm    *Farm
	Samples []Sample
}

// SynthesizeYear generates `hours` of correlated synthetic weather and farm
// history: a seasonal + diurnal wind-speed signal with autoregressive noise,
// imperfect forecasts (bias + noise), and occasional turbine outages. This
// is the paper's "historical datasets of the wind farm ... at least one year
// of data" substitute.
func SynthesizeYear(seed int64, hours int, farm *Farm) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{Farm: farm}
	ar := 0.0
	for h := 0; h < hours; h++ {
		seasonal := 7 + 2.5*math.Sin(2*math.Pi*float64(h)/(24*365)*4)
		diurnal := 1.5 * math.Sin(2*math.Pi*float64(h%24)/24)
		ar = 0.85*ar + rng.NormFloat64()*1.2
		actual := math.Max(0, seasonal+diurnal+ar)

		forecastErr := 0.4*rng.NormFloat64() + 0.3 // slight high bias
		forecast := math.Max(0, actual+forecastErr)

		avail := 1.0
		if rng.Float64() < 0.02 {
			avail = 1 - float64(1+rng.Intn(3))/float64(len(farm.Turbines))
		}
		dir := math.Mod(2*math.Pi*float64(h)/500+rng.NormFloat64()*0.2, 2*math.Pi)

		power := farm.Power(actual) * avail * (0.97 + 0.03*rng.Float64())
		ds.Samples = append(ds.Samples, Sample{
			Hour: h, ForecastWS: forecast, ForecastDir: dir,
			PowerKW: power, Availability: avail,
		})
	}
	return ds
}

// Features converts a sample into the regression feature vector: the
// wind-related parameters the paper describes ("combining deterministic
// weather forecasts, historical WRF time series, historical datasets of the
// wind farm, and real-time data"). The deterministic power-curve prediction
// itself is a feature, so the learner corrects the physical model rather
// than rediscovering it.
func Features(farm *Farm, s Sample) []float64 {
	return []float64{
		farm.Power(s.ForecastWS) * s.Availability,
		s.ForecastWS,
		s.ForecastWS * s.ForecastWS,
		math.Sin(s.ForecastDir), math.Cos(s.ForecastDir),
		math.Sin(2 * math.Pi * float64(s.Hour%24) / 24),
		math.Cos(2 * math.Pi * float64(s.Hour%24) / 24),
		s.Availability,
	}
}

// KRR is Kernel Ridge Regression with an RBF kernel. The regressor owns
// its training state in buffers it reuses from fit to fit: the training
// values max-abs-scaled, the Cholesky factor L of K+λI (in blocks of rows
// that never move, see cholBlock), and the fit's solution in one of two
// forms, chosen by the entry point that made the fit. Fit and FitRows
// keep the dual coefficients α = (K+λI)⁻¹(y−ȳ), so a Predict costs one
// kernel vector and a dot product; they also keep a copy of the raw
// values their rows spanned, the prefix a warm refit must extend.
// FitLagged fits the series the regressor owns (Append, Trim) and reads
// it in place, so it needs no copy. It keeps the forward solves u = L⁻¹y
// and v = L⁻¹1, and a Predict forward-solves its kernel vector k too,
// w = L⁻¹k, and returns ȳ + w·(u − ȳv); that w is the next lagged fit's
// new factor row (see FitLagged). u and v are per-row vectors kept in
// the factor's blocks beside the rows they belong to, and w is kept in
// the factor row it becomes, so all three grow with the factor and are
// never copied either. K+λI itself is never stored:
// the factorization computes each entry where it uses it. Refits
// therefore allocate only when the training set outgrows the buffers, a
// factor that gains rows allocates only its new blocks and copies none of
// its old rows, and a refit whose rows extend the previous fit's
// recomputes only the new rows (see FitRows). Predict scales its input
// and keeps its kernel vector in buffers the regressor owns, so a KRR is
// not safe for concurrent use.
type KRR struct {
	Lambda float64 // ridge regularization
	Gamma  float64 // RBF width
	// n rows of d features; row i starts at offset i*stride of the values
	// the rows span, and the value at offset p is scaled by
	// scale[p%stride]
	n, d, stride int
	// series is the lagged series (Append, Trim), oldest first, which
	// FitLagged reads in place; trimmed marks it rewritten since the last
	// fit, so the next lagged fit refits cold.
	series  []float64
	trimmed bool
	raw     []float64   // FitRows: the (n-1)·stride+d raw values its rows spanned
	xs      []float64   // the spanned values divided by their scales; row i is xs[i*stride:i*stride+d]
	maxAbs  []float64   // max-abs of the raw values at each offset modulo stride
	scale   []float64   // maxAbs with zeros replaced by 1
	chol    [][]float64 // Cholesky factor L of K+λI in blocks of cholBlock rows (see rows), and u and v (see vec)
	alpha   []float64   // dual coefficients after FitRows
	feat    []float64   // Predict's scaled features, reused
	kv      []float64   // Predict's kernel vector after FitRows, kv[j] = k(feat, row j)
	yMean   float64

	fitted bool
	// lagged marks a fit made by FitLagged: it keeps u and v, not α.
	lagged bool
	// exact marks a fit whose chol factors K+λI with no jitter, built
	// with hyperparameters lambda and gamma: its rows are the leading
	// rows of any later factor over an extension of the same rows.
	exact         bool
	lambda, gamma float64
	// kvOK marks feat and the kernel vector (kv, or w after a lagged fit)
	// as computed by a Predict since the last fit, with that fit's scales
	// and γ. kvUsed records whether the last fit took its new row's
	// kernel entries from them (after a lagged fit, its eliminated factor
	// row), kept how many factor rows it reused from the fit before (0: it
	// factored cold), and backSolved whether it ran a back substitution
	// (dual form only).
	kvOK, kvUsed, backSolved bool
	kept                     int
}

// NewKRR returns a regressor with the given hyperparameters.
func NewKRR(lambda, gamma float64) *KRR { return &KRR{Lambda: lambda, Gamma: gamma} }

// DefaultKRR returns the regressor with the hyperparameters selected by the
// backtesting sweep (λ=0.01, γ=0.05 on max-abs-scaled features).
func DefaultKRR() *KRR { return NewKRR(0.01, 0.05) }

// Fit solves (K + λI)α = y on the training matrix (rows are samples).
func (k *KRR) Fit(x *tensor.Tensor, y []float64) error {
	if x.Rank() != 2 || x.Shape()[0] != len(y) {
		return fmt.Errorf("energy: KRR training shape mismatch")
	}
	return k.FitRows(x.Data(), x.Shape()[0], x.Shape()[1], y)
}

// FitRows solves (K + λI)α = y on n training rows of d features, given
// row-major in x (row i is x[i*d:(i+1)*d]). Each column is scaled by its
// own max-abs. x and y are read, not kept.
//
// The refit is warm when the previous fit, by the same entry point,
// succeeded without jitter under the same row geometry, λ and γ, the raw
// values its rows spanned are a bitwise prefix of x, and x leaves every
// scale unchanged. The Cholesky rows of that prefix are then reused as
// they are and only the rows past it are computed: O(n·d) kernel work
// and an O(n²) factor row per new row, instead of the O(n²·d) kernel and
// O(n³) factor of a cold fit.
// When exactly one row is new and its scaled features are, bit for bit,
// those of the last Predict since the previous fit, that Predict's kernel
// vector serves as the new row's kernel entries. The result is
// bit-identical to a cold fit, because row i of a Cholesky factor depends
// only on rows <= i of the factored matrix, every entry is computed by
// the same operations in the same order, and (a−b)² and (b−a)² are the
// same double. Any other refit, and every jitter retry, factors from
// row 0.
func (k *KRR) FitRows(x []float64, n, d int, y []float64) error {
	if n < 0 || d < 0 || len(x) != n*d || len(y) != n {
		return fmt.Errorf("energy: KRR training shape mismatch")
	}
	return k.fit(x, n, d, d, y, false)
}

// Append extends the lagged series FitLagged fits by one value.
func (k *KRR) Append(v float64) { k.series = append(k.series, v) }

// Trim keeps the lagged series' last n values, in place. Trimming rewrites
// every row, so the next FitLagged refits cold.
func (k *KRR) Trim(n int) {
	if drop := len(k.series) - max(n, 0); drop > 0 {
		k.series = k.series[:copy(k.series, k.series[drop:])]
		k.trimmed = true
	}
}

// Series returns the lagged series, oldest first. It is the regressor's
// own buffer: the caller reads it and must not write it.
func (k *KRR) Series() []float64 { return k.series }

// FitLagged fits the autoregression of the lagged series (Append, Trim)
// on its lag windows, read in place: row i is series[i:i+lag] and its
// target series[i+lag], for the len(series)−lag rows that have a target.
// Every lag column holds the same series, so all of them share one scale:
// the max-abs of the values the rows span, series[:len(series)−1]. The
// regressor keeps that span scaled once and reads each row in place from
// it. Because only Append and Trim change the series, a refit after
// Appends alone extends the previous FitLagged's rows and is warm as in
// FitRows, with no prefix to compare; a new series maximum turns exactly
// one refit cold, and so does a Trim.
//
// The fit keeps the forward solves u = L⁻¹y and v = L⁻¹1 instead of dual
// coefficients (see KRR), so a warm refit extends both by one entry per
// new row and runs no back substitution. A Predict after it
// forward-solves w = L⁻¹k into the factor row a refit adding one row
// would fill, and w is exactly that row's entries left of the diagonal
// when the row's scaled features are the Predict's, bit for bit. A warm
// refit that adds that one row then finds w in place and computes only
// the diagonal, √(k(x,x)+λ−w·w): one forecaster roll costs one kernel
// vector and one O(n²/2) elimination, both in Predict.
func (k *KRR) FitLagged(lag int) error {
	if lag < 1 || len(k.series) < lag {
		return fmt.Errorf("energy: KRR training shape mismatch")
	}
	return k.fit(k.series, len(k.series)-lag, lag, 1, k.series[lag:], true)
}

// fit is the body of FitRows and FitLagged: n rows of d features, row i
// at x[i*stride:i*stride+d], and their n targets y, solved in the lagged
// form or the dual one. The value at offset p of the span is scaled by
// the max-abs of the values at its offset modulo stride: its column when
// stride is d, the whole span when it is 1.
func (k *KRR) fit(x []float64, n, d, stride int, y []float64, lagged bool) error {
	if n < 2 {
		return fmt.Errorf("energy: KRR needs at least 2 samples")
	}
	span := (n-1)*stride + d
	keep, from := k.prefixRows(x, n, d, stride, lagged)
	kvOK := k.kvOK
	k.trimmed = false
	k.fitted, k.exact, k.kvOK, k.kvUsed, k.backSolved, k.kept = false, false, false, false, false, 0
	k.n, k.d, k.stride, k.lagged = n, d, stride, lagged

	// Standardize for a well-conditioned kernel, folding the maxima on
	// from the reused prefix's.
	if keep == 0 {
		k.maxAbs = grow(k.maxAbs, stride)
		clear(k.maxAbs)
	}
	for p := from; p < span; p++ {
		j := p % stride
		k.maxAbs[j] = math.Max(k.maxAbs[j], math.Abs(x[p]))
	}
	k.scale = grow(k.scale, stride)
	for j, m := range k.maxAbs {
		if m == 0 {
			m = 1
		}
		if math.Float64bits(m) != math.Float64bits(k.scale[j]) {
			k.scale[j], keep = m, 0
		}
	}

	if !lagged {
		k.raw = grow(k.raw, span)
		copy(k.raw[from:], x[from:span])
	}
	if keep == 0 {
		from = 0
	}
	k.xs = grow(k.xs, span)
	for p := from; p < span; p++ {
		k.xs[p] = x[p] / k.scale[p%stride]
	}

	// The last Predict's kernel vector is the last row's kernel entries
	// (forward-solved, after a lagged fit) when that row is the only new
	// one, the scales held, and its scaled features are the ones Predict
	// evaluated.
	k.feat = grow(k.feat, d)
	if !lagged {
		k.kv = grow(k.kv, n)
	}
	k.kvUsed = kvOK && keep > 0 && n == keep+1 && sameBits(k.row(n-1), k.feat)

	k.yMean = 0
	for _, v := range y {
		k.yMean += v
	}
	k.yMean /= float64(n)

	// Factor K+λI, adding jitter to the diagonal geometrically until it
	// is positive definite (up to 8 attempts).
	k.growRows(n)
	reuse := k.kvUsed
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if k.factor(keep, reuse, jitter) {
			if lagged {
				k.forward(y, keep)
			} else {
				k.solve(y)
			}
			k.fitted, k.exact, k.kept = true, jitter == 0, keep
			k.lambda, k.gamma = k.Lambda, k.Gamma
			return nil
		}
		keep, reuse = 0, false
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
	}
	return fmt.Errorf("energy: KRR solve: Gram matrix not positive definite even with jitter %.3g", jitter)
}

// row returns training row i, scaled, in place.
func (k *KRR) row(i int) []float64 { return k.xs[i*k.stride : i*k.stride+k.d] }

// cholBlock is how many consecutive factor rows share one allocation.
// Block b holds rows b·cholBlock up to (b+1)·cholBlock−1 packed, each row
// of length i+1 after the one before it, then those rows' entries of the
// lagged form's per-row vectors (see vec): 64b+52 entries at 8 rows. A
// block is allocated when its first row is needed and never copied, so
// a factor that gains rows keeps every row it had where it was, and u
// and v grow with it.
const cholBlock = 8

// The lagged form's per-row vectors, by their place in a block: each
// block ends with its rows' entries of u, then v.
const (
	vecU      = iota // u = L⁻¹y
	vecV             // v = L⁻¹1
	blockVecs = iota * cholBlock
)

// vec returns block b's cholBlock entries of per-row vector which (vecU
// or vecV): the entries of rows b·cholBlock on.
func (k *KRR) vec(b, which int) *[cholBlock]float64 {
	t := k.chol[b]
	return (*[cholBlock]float64)(t[len(t)-blockVecs+which*cholBlock:])
}

// growRows allocates the blocks factor rows up to n-1 need.
func (k *KRR) growRows(n int) {
	for b := len(k.chol); b*cholBlock < n; b++ {
		k.chol = append(k.chol, make([]float64, cholBlock*(cholBlock*b)+cholBlock*(cholBlock+1)/2+blockVecs))
	}
}

// rowCursor walks the factor's rows in order: next returns row i, entries
// (i, 0..i), and moves to row i+1. It carries its block and offset, so no
// loop recomputes where a row starts.
type rowCursor struct {
	blocks [][]float64
	blk    []float64 // blocks[b]
	i, b   int
	off    int // where row i starts in blk; where blk's vectors start once the block is done
}

// rows returns a cursor at factor row i, which may be one past the last
// row the blocks hold (a refit that adds no row factors from there).
func (k *KRR) rows(i int) rowCursor {
	b, r := i/cholBlock, i%cholBlock
	if r == 0 && b > 0 {
		b, r = b-1, cholBlock // the end of the block before: no block b needed yet
	}
	return rowCursor{blocks: k.chol, blk: k.chol[b], i: i, b: b, off: r*(b*cholBlock) + r*(r+1)/2}
}

func (c *rowCursor) next() []float64 {
	if c.off == len(c.blk)-blockVecs {
		c.b++
		c.blk, c.off = c.blocks[c.b], 0
	}
	row := c.blk[c.off : c.off+c.i+1]
	c.off += c.i + 1
	c.i++
	return row
}

// prefixRows returns how many leading rows of x the previous fit's
// Cholesky rows can serve as they are, and how many leading values of x
// that fit already spanned: all of that fit's rows and its span when it
// qualifies for a warm refit in the same form, else 0 and 0. A lagged
// refit qualifies unless the series was trimmed since (FitLagged); a dual
// one when the raw values it kept are a bitwise prefix of x (FitRows).
func (k *KRR) prefixRows(x []float64, n, d, stride int, lagged bool) (rows, values int) {
	if !k.exact || lagged != k.lagged || d != k.d || stride != k.stride || n < k.n ||
		k.lambda != k.Lambda || k.gamma != k.Gamma {
		return 0, 0
	}
	span := (k.n-1)*stride + d
	if lagged && k.trimmed || !lagged && !sameBits(k.raw, x[:span]) {
		return 0, 0
	}
	return k.n, span
}

// sameBits reports whether a and b, of equal length, hold the same
// doubles bit for bit.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// factor computes Cholesky rows from..n-1 of K+λI plus jitter on the
// diagonal, on top of rows 0..from-1 already in chol. K+λI is never held
// whole: each row's entries, k(row j, row i) left of the diagonal and
// k(row i, row i)+λ on it, are computed into the factor row that
// eliminates them in place. With reuse set, the last Predict's kernel
// vector holds the last row's entries left of the diagonal: its kernel
// entries (kv), or after a lagged fit those entries already eliminated
// and in place in the row (w), so only the diagonal is left. It reports
// false at the first non-positive pivot.
func (k *KRR) factor(from int, reuse bool, jitter float64) bool {
	ci := k.rows(from)
	for i := from; i < k.n; i++ {
		xi := k.row(i)
		li := ci.next()
		first := 0 // the first entry left to eliminate
		if reuse && i == k.n-1 {
			if k.lagged {
				first = i // Predict left w in this row
			} else {
				copy(li, k.kv[:i])
			}
		} else {
			for j := range li[:i] {
				li[j] = k.rbf(k.row(j), xi)
			}
		}
		li[i] = k.rbf(xi, xi) + k.Lambda + jitter
		cj := k.rows(first)
		for j := first; j <= i; j++ {
			lj := li
			if j < i {
				lj = cj.next()
			}
			// Four terms a step, in order: a one-term loop's speed hangs
			// on whether it happens to straddle a cache line, and a cold
			// refit spends most of its time here.
			sum := li[j]
			lr := lj[:j]
			lc := li[:len(lr)]
			c := 0
			for ; c+4 <= len(lr); c += 4 {
				sum -= lc[c] * lr[c]
				sum -= lc[c+1] * lr[c+1]
				sum -= lc[c+2] * lr[c+2]
				sum -= lc[c+3] * lr[c+3]
			}
			for ; c < len(lr); c++ {
				sum -= lc[c] * lr[c]
			}
			if i == j {
				if sum <= 0 {
					return false
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return true
}

// forward extends u = L⁻¹y and v = L⁻¹1 past the first keep rows, which
// kept their factor rows, their targets and so their entries of both.
func (k *KRR) forward(y []float64, keep int) {
	ci := k.rows(keep)
	for i := keep; i < k.n; i++ {
		li := ci.next()
		su, sv := y[i], 1.0
		var u, v *[cholBlock]float64
		for c, l := range li[:i] {
			if c%cholBlock == 0 {
				u, v = k.vec(c/cholBlock, vecU), k.vec(c/cholBlock, vecV)
			}
			su -= l * u[c%cholBlock]
			sv -= l * v[c%cholBlock]
		}
		b, r := i/cholBlock, i%cholBlock
		k.vec(b, vecU)[r], k.vec(b, vecV)[r] = su/li[i], sv/li[i]
	}
}

// solve sets alpha to the solution of L Lᵀ α = y − mean(y) by forward
// then backward substitution, in place.
func (k *KRR) solve(y []float64) {
	n := k.n
	k.alpha = grow(k.alpha, n)
	a := k.alpha
	for i, v := range y {
		a[i] = v - k.yMean
	}
	ci := k.rows(0)
	for i := 0; i < n; i++ {
		li := ci.next()
		// Four terms a step, in order, as factor eliminates.
		s := a[i]
		lr := li[:i]
		ar := a[:len(lr)]
		c := 0
		for ; c+4 <= len(lr); c += 4 {
			s -= lr[c] * ar[c]
			s -= lr[c+1] * ar[c+1]
			s -= lr[c+2] * ar[c+2]
			s -= lr[c+3] * ar[c+3]
		}
		for ; c < len(lr); c++ {
			s -= lr[c] * ar[c]
		}
		a[i] = s / li[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := a[i]
		// Column i of L below the diagonal: entry (c, i) for c > i, four
		// terms a step.
		col := k.rows(i)
		lii := col.next()[i]
		c := i + 1
		for ; c+4 <= n; c += 4 {
			s -= col.next()[i] * a[c]
			s -= col.next()[i] * a[c+1]
			s -= col.next()[i] * a[c+2]
			s -= col.next()[i] * a[c+3]
		}
		for ; c < n; c++ {
			s -= col.next()[i] * a[c]
		}
		a[i] = s / lii
	}
	k.backSolved = true
}

func (k *KRR) rbf(a, b []float64) float64 {
	b = b[:len(a)]
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-k.Gamma * s)
}

// Predict returns the regression output for one feature vector. It keeps
// the scaled features and their kernel vector for the next fit (FitRows).
// After a lagged fit it forward-solves that vector row by row, with the
// operations the factorization would eliminate it with, into the factor
// row a refit adding one row would fill (allocating its block, which that
// refit would allocate, if it is the first row of a block).
func (k *KRR) Predict(feat []float64) (float64, error) {
	if !k.fitted {
		return 0, fmt.Errorf("energy: KRR not fitted")
	}
	if len(feat) != k.d {
		return 0, fmt.Errorf("energy: KRR expects %d features, got %d", k.d, len(feat))
	}
	fs := k.feat
	for j, v := range feat {
		fs[j] = v / k.scale[j%k.stride]
	}
	out := k.yMean
	if k.lagged {
		k.growRows(k.n + 1)
		next := k.rows(k.n)
		w := next.next()[:k.n]
		ci := k.rows(0)
		for i := range w {
			li := ci.next()
			// Four terms a step, in order, as factor eliminates.
			s := k.rbf(fs, k.row(i))
			lr := li[:i]
			wr := w[:len(lr)]
			c := 0
			for ; c+4 <= len(lr); c += 4 {
				s -= wr[c] * lr[c]
				s -= wr[c+1] * lr[c+1]
				s -= wr[c+2] * lr[c+2]
				s -= wr[c+3] * lr[c+3]
			}
			for ; c < len(lr); c++ {
				s -= wr[c] * lr[c]
			}
			w[i] = s / li[i]
			b, r := i/cholBlock, i%cholBlock
			out += w[i] * (k.vec(b, vecU)[r] - k.yMean*k.vec(b, vecV)[r])
		}
	} else {
		kv := k.kv[:k.n]
		for i, a := range k.alpha[:k.n] {
			kv[i] = k.rbf(fs, k.row(i))
			out += a * kv[i]
		}
	}
	k.kvOK = k.Gamma == k.gamma
	return out, nil
}

// grow returns s resized to n entries, keeping its contents up to n.
func grow(s []float64, n int) []float64 {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]float64, n-cap(s))...)
}

// BacktestResult reports forecast error per model (E12's table).
type BacktestResult struct {
	MAEKRR         float64 // kernel ridge
	MAELinear      float64 // ordinary least squares baseline
	MAEPersistence float64 // previous-day same-hour baseline
	MAEPhysical    float64 // power curve on forecast wind only
}

// Backtest trains on the first trainFrac of the data and evaluates MAE (kW)
// on the rest, comparing KRR against the baselines.
func Backtest(ds *Dataset, trainFrac float64, krr *KRR) (*BacktestResult, error) {
	n := len(ds.Samples)
	split := int(float64(n) * trainFrac)
	if split < 10 || n-split < 10 {
		return nil, fmt.Errorf("energy: not enough data to backtest (n=%d)", n)
	}
	d := len(Features(ds.Farm, ds.Samples[0]))
	xTrain := tensor.New(split, d)
	yTrain := make([]float64, split)
	for i := 0; i < split; i++ {
		f := Features(ds.Farm, ds.Samples[i])
		for j, v := range f {
			xTrain.Set(v, i, j)
		}
		yTrain[i] = ds.Samples[i].PowerKW
	}
	if err := krr.Fit(xTrain, yTrain); err != nil {
		return nil, err
	}
	lin, err := fitLinear(xTrain, yTrain)
	if err != nil {
		return nil, err
	}

	res := &BacktestResult{}
	for i := split; i < n; i++ {
		s := ds.Samples[i]
		truth := s.PowerKW
		f := Features(ds.Farm, s)

		pk, err := krr.Predict(f)
		if err != nil {
			return nil, err
		}
		res.MAEKRR += math.Abs(pk - truth)

		pl := lin.predict(f)
		res.MAELinear += math.Abs(pl - truth)

		// Persistence: same hour yesterday.
		if i >= 24 {
			res.MAEPersistence += math.Abs(ds.Samples[i-24].PowerKW - truth)
		}
		// Physical: power curve applied to the forecast wind.
		res.MAEPhysical += math.Abs(ds.Farm.Power(s.ForecastWS)*s.Availability - truth)
	}
	cnt := float64(n - split)
	res.MAEKRR /= cnt
	res.MAELinear /= cnt
	res.MAEPersistence /= cnt
	res.MAEPhysical /= cnt
	return res, nil
}

// linReg is the OLS baseline.
type linReg struct {
	w []float64
	b float64
}

func fitLinear(x *tensor.Tensor, y []float64) (*linReg, error) {
	n, d := x.Shape()[0], x.Shape()[1]
	// Normal equations with small ridge: (XᵀX + εI) w = Xᵀy.
	xtx := tensor.New(d+1, d+1)
	xty := tensor.New(d + 1)
	for i := 0; i < n; i++ {
		row := make([]float64, d+1)
		for j := 0; j < d; j++ {
			row[j] = x.At(i, j)
		}
		row[d] = 1
		for a := 0; a <= d; a++ {
			for b := 0; b <= d; b++ {
				xtx.Set(xtx.At(a, b)+row[a]*row[b], a, b)
			}
			xty.Set(xty.At(a)+row[a]*y[i], a)
		}
	}
	for a := 0; a <= d; a++ {
		xtx.Set(xtx.At(a, a)+1e-6, a, a)
	}
	w, err := tensor.SolveSPD(xtx, xty)
	if err != nil {
		return nil, err
	}
	lr := &linReg{w: make([]float64, d), b: w.At(d)}
	for j := 0; j < d; j++ {
		lr.w[j] = w.At(j)
	}
	return lr, nil
}

func (l *linReg) predict(f []float64) float64 {
	s := l.b
	for j, v := range f {
		s += l.w[j] * v
	}
	return s
}
