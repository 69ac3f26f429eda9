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
	ActualWS     float64 // measured wind speed
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
			ActualWS: actual, PowerKW: power, Availability: avail,
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
// its training state in flat buffers it reuses from fit to fit: the raw
// training values (the warm-refit prefix), the max-abs-scaled training
// rows (row-major), the Cholesky factor of K+λI (packed lower-triangular,
// entry (i, j), j <= i, at i(i+1)/2+j), and the dual coefficients. K+λI
// itself is never stored: the factorization computes each entry where it
// uses it. Refits therefore allocate only when the training set outgrows
// the buffers, and a refit whose rows extend the previous fit's
// recomputes only the new rows (see FitRows). Predict scales its input
// and keeps its kernel vector in buffers the regressor owns, so a KRR is
// not safe for concurrent use.
type KRR struct {
	Lambda float64 // ridge regularization
	Gamma  float64 // RBF width
	// n rows of d features; row i starts at raw[i*stride]
	n, d, stride int
	raw          []float64 // the (n-1)·stride+d raw values spanned by the rows
	xs           []float64 // n×d training rows divided by scale
	colMax       []float64 // per-column max-abs of the raw rows
	scale        []float64 // colMax with zeros replaced by 1
	chol         []float64 // packed lower-triangular Cholesky factor of K+λI
	alpha        []float64 // dual coefficients
	feat         []float64 // Predict's scaled features, reused
	kv           []float64 // Predict's kernel vector: kv[j] = k(feat, row j)
	yMean        float64

	fitted bool
	// exact marks a fit whose chol factors K+λI with no jitter, built
	// with hyperparameters lambda and gamma: its rows are the leading
	// rows of any later factor over an extension of the same rows.
	exact         bool
	lambda, gamma float64
	// kvOK marks feat and kv as computed by a Predict since the last fit,
	// with that fit's scales and γ. kvUsed records whether the last fit
	// took its new row's kernel entries from them.
	kvOK, kvUsed bool
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
// row-major in x (row i is x[i*d:(i+1)*d]). x and y are read, not kept.
//
// The refit is warm when the previous fit succeeded without jitter under
// the same row geometry, λ and γ, the raw values its rows spanned are a
// bitwise prefix of x, and x leaves every column's max-abs scale
// unchanged. The Cholesky rows of that prefix are then reused as they are
// and only the rows past it are computed: O(n·d) kernel work and an
// O(n²) factor row per new row, instead of the O(n²·d) kernel and O(n³)
// factor of a cold fit. When exactly one row is new and its scaled
// features are, bit for bit, those of the last Predict since the previous
// fit, that Predict's kernel vector serves as the new row's kernel
// entries. The result is bit-identical to a cold fit, because row i of a
// Cholesky factor depends only on rows <= i of the factored matrix, every
// entry is computed by the same operations in the same order, and
// (a−b)² and (b−a)² are the same double. Any other refit, and every
// jitter retry, factors from row 0.
func (k *KRR) FitRows(x []float64, n, d int, y []float64) error {
	if n < 0 || d < 0 || len(x) != n*d || len(y) != n {
		return fmt.Errorf("energy: KRR training shape mismatch")
	}
	return k.fit(x, n, d, d, y)
}

// FitLagged fits the autoregression of one series on its lag windows in
// place: row i is series[i:i+lag] and its target series[i+lag], for the
// len(series)−lag rows that have a target. series is read, not kept. It
// equals FitRows on the materialized rows bit for bit, and a refit over
// an extension of the previous fit's series is warm as in FitRows.
func (k *KRR) FitLagged(series []float64, lag int) error {
	if lag < 1 || len(series) < lag {
		return fmt.Errorf("energy: KRR training shape mismatch")
	}
	return k.fit(series, len(series)-lag, lag, 1, series[lag:])
}

// fit is the body of FitRows and FitLagged: n rows of d features, row i
// at x[i*stride:i*stride+d], and their n targets y.
func (k *KRR) fit(x []float64, n, d, stride int, y []float64) error {
	if n < 2 {
		return fmt.Errorf("energy: KRR needs at least 2 samples")
	}
	span := (n-1)*stride + d
	keep, from := k.prefixRows(x, n, d, stride)
	kvOK := k.kvOK
	k.fitted, k.exact, k.kvOK, k.kvUsed = false, false, false, false
	k.n, k.d, k.stride = n, d, stride

	// Standardize features for a well-conditioned kernel: each column is
	// scaled by its max-abs, folded on from the reused prefix's maxima.
	if keep == 0 {
		k.colMax = grow(k.colMax, d)
		clear(k.colMax)
	}
	for i := keep; i < n; i++ {
		for j, v := range x[i*stride : i*stride+d] {
			k.colMax[j] = math.Max(k.colMax[j], math.Abs(v))
		}
	}
	k.scale = grow(k.scale, d)
	for j, m := range k.colMax {
		if m == 0 {
			m = 1
		}
		if math.Float64bits(m) != math.Float64bits(k.scale[j]) {
			k.scale[j], keep = m, 0
		}
	}

	k.raw = grow(k.raw, span)
	copy(k.raw[from:], x[from:span])
	k.xs = grow(k.xs, n*d)
	for i := keep; i < n; i++ {
		for j, v := range x[i*stride : i*stride+d] {
			k.xs[i*d+j] = v / k.scale[j]
		}
	}

	// The last Predict's kernel vector is the last row's kernel entries
	// when that row is the only new one, the scales held, and its scaled
	// features are the ones Predict evaluated.
	k.feat = grow(k.feat, d)
	k.kv = grow(k.kv, n)
	var kv []float64
	if kvOK && keep > 0 && n == keep+1 && sameBits(k.xs[(n-1)*d:n*d], k.feat) {
		kv, k.kvUsed = k.kv[:n-1], true
	}

	k.yMean = 0
	for _, v := range y {
		k.yMean += v
	}
	k.yMean /= float64(n)

	// Factor K+λI, adding jitter to the diagonal geometrically until it
	// is positive definite (up to 8 attempts).
	k.chol = grow(k.chol, n*(n+1)/2)
	jitter := 0.0
	for attempt := 0; attempt < 8; attempt++ {
		if k.factor(keep, kv, jitter) {
			k.solve(y)
			k.fitted, k.exact = true, jitter == 0
			k.lambda, k.gamma = k.Lambda, k.Gamma
			return nil
		}
		keep, kv = 0, nil
		if jitter == 0 {
			jitter = 1e-10
		} else {
			jitter *= 10
		}
	}
	return fmt.Errorf("energy: KRR solve: Gram matrix not positive definite even with jitter %.3g", jitter)
}

// prefixRows returns how many leading rows of x the previous fit's
// Cholesky rows can serve as they are, and how many leading raw values of
// x that fit already holds: all of that fit's rows and its raw span when
// it qualifies for a warm refit (FitRows), else 0 and 0.
func (k *KRR) prefixRows(x []float64, n, d, stride int) (rows, values int) {
	if !k.exact || d != k.d || stride != k.stride || n < k.n || k.lambda != k.Lambda || k.gamma != k.Gamma ||
		!sameBits(k.raw, x[:len(k.raw)]) {
		return 0, 0
	}
	return k.n, len(k.raw)
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
// eliminates them in place. kv, when not nil, holds the last row's
// entries left of the diagonal. It reports false at the first
// non-positive pivot.
func (k *KRR) factor(from int, kv []float64, jitter float64) bool {
	d := k.d
	for i := from; i < k.n; i++ {
		xi := k.xs[i*d : (i+1)*d]
		li := k.chol[i*(i+1)/2 : i*(i+1)/2+i+1]
		if kv != nil && i == k.n-1 {
			copy(li, kv)
		} else {
			for j := range li[:i] {
				li[j] = k.rbf(k.xs[j*d:(j+1)*d], xi)
			}
		}
		li[i] = k.rbf(xi, xi) + k.Lambda + jitter
		for j := 0; j <= i; j++ {
			lj := k.chol[j*(j+1)/2 : j*(j+1)/2+j+1]
			sum := li[j]
			for c, v := range lj[:j] {
				sum -= li[c] * v
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

// solve sets alpha to the solution of L Lᵀ α = y − mean(y) by forward
// then backward substitution, in place.
func (k *KRR) solve(y []float64) {
	n := k.n
	k.alpha = grow(k.alpha, n)
	a := k.alpha
	for i, v := range y {
		a[i] = v - k.yMean
	}
	for i := 0; i < n; i++ {
		li := k.chol[i*(i+1)/2 : i*(i+1)/2+i+1]
		s := a[i]
		for c, v := range li[:i] {
			s -= v * a[c]
		}
		a[i] = s / li[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := a[i]
		// Column i of L below the diagonal: entry (c, i) for c > i.
		off := (i+1)*(i+2)/2 + i
		for c := i + 1; c < n; c++ {
			s -= k.chol[off] * a[c]
			off += c + 1
		}
		a[i] = s / k.chol[i*(i+1)/2+i]
	}
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
func (k *KRR) Predict(feat []float64) (float64, error) {
	if !k.fitted {
		return 0, fmt.Errorf("energy: KRR not fitted")
	}
	if len(feat) != k.d {
		return 0, fmt.Errorf("energy: KRR expects %d features, got %d", k.d, len(feat))
	}
	fs := k.feat
	for j, v := range feat {
		fs[j] = v / k.scale[j]
	}
	out := k.yMean
	kv := k.kv[:k.n]
	for i, a := range k.alpha[:k.n] {
		kv[i] = k.rbf(fs, k.xs[i*k.d:(i+1)*k.d])
		out += a * kv[i]
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
	TestHours      int
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

	res := &BacktestResult{TestHours: n - split}
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
