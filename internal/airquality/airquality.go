// Package airquality implements the air-quality monitoring use case (paper
// §II-C): forecasting the impact of an industrial site's atmospheric
// releases on its surroundings over a 2–3 day window, combining an hourly
// weather forecast with an atmospheric dispersion forecast, correcting
// errors with machine learning on the three observed weather parameters the
// paper names (air temperature at 10m, wind direction, wind speed), and
// driving the costly emission-reduction decision.
//
// The ADMS dispersion model (closed source) is substituted by a Gaussian
// plume model with Pasquill–Gifford stability classes — the same model
// family — which preserves the forecast-correction workflow the SDK
// accelerates.
package airquality

import (
	"fmt"
	"math"
	"math/rand"

	"everest/internal/tensor"
)

// Stability is a Pasquill–Gifford atmospheric stability class.
type Stability int

// Stability classes A (very unstable) through F (very stable).
const (
	ClassA Stability = iota
	ClassB
	ClassC
	ClassD
	ClassE
	ClassF
)

// sigmaYZ returns the horizontal/vertical dispersion coefficients (m) at
// downwind distance x (m), briggs rural fits.
func sigmaYZ(s Stability, x float64) (sy, sz float64) {
	if x < 1 {
		x = 1
	}
	switch s {
	case ClassA:
		sy = 0.22 * x / math.Sqrt(1+0.0001*x)
		sz = 0.20 * x
	case ClassB:
		sy = 0.16 * x / math.Sqrt(1+0.0001*x)
		sz = 0.12 * x
	case ClassC:
		sy = 0.11 * x / math.Sqrt(1+0.0001*x)
		sz = 0.08 * x / math.Sqrt(1+0.0002*x)
	case ClassD:
		sy = 0.08 * x / math.Sqrt(1+0.0001*x)
		sz = 0.06 * x / math.Sqrt(1+0.0015*x)
	case ClassE:
		sy = 0.06 * x / math.Sqrt(1+0.0001*x)
		sz = 0.03 * x / (1 + 0.0003*x)
	default:
		sy = 0.04 * x / math.Sqrt(1+0.0001*x)
		sz = 0.016 * x / (1 + 0.0003*x)
	}
	return sy, sz
}

// StabilityFromWeather derives the class from wind speed and insolation
// proxy (hour of day), a standard Pasquill table simplification.
func StabilityFromWeather(windMS float64, hour int) Stability {
	day := hour%24 >= 7 && hour%24 <= 18
	switch {
	case day && windMS < 2:
		return ClassA
	case day && windMS < 3:
		return ClassB
	case day && windMS < 5:
		return ClassC
	case day:
		return ClassD
	case windMS < 2:
		return ClassF
	case windMS < 3:
		return ClassE
	default:
		return ClassD
	}
}

// Source is one emission point of the industrial site.
type Source struct {
	X, Y   float64 // position (m)
	Height float64 // effective release height (m)
	RateGS float64 // emission rate (g/s)
}

// Receptor is a monitoring location.
type Receptor struct {
	X, Y float64
	Z    float64 // sampling height (m)
}

// Weather is one hour of met input.
type Weather struct {
	Hour    int
	WindMS  float64 // wind speed at 10m
	WindDir float64 // direction the wind blows TOWARD (rad, math convention)
	TempC   float64 // air temperature at 10m
}

// PlumeConcentration returns the steady-state concentration (µg/m³) at a
// receptor for one source under the given weather.
func PlumeConcentration(src Source, rec Receptor, w Weather) float64 {
	u := math.Max(0.5, w.WindMS)
	// Rotate into plume coordinates: x downwind, y crosswind.
	dx := rec.X - src.X
	dy := rec.Y - src.Y
	cos, sin := math.Cos(w.WindDir), math.Sin(w.WindDir)
	downwind := dx*cos + dy*sin
	crosswind := -dx*sin + dy*cos
	if downwind <= 0 {
		return 0 // upwind receptor
	}
	sy, sz := sigmaYZ(StabilityFromWeather(w.WindMS, w.Hour), downwind)
	h := src.Height
	z := rec.Z
	// Gaussian plume with ground reflection; grams to micrograms.
	q := src.RateGS * 1e6
	c := q / (2 * math.Pi * u * sy * sz) *
		math.Exp(-crosswind*crosswind/(2*sy*sy)) *
		(math.Exp(-(z-h)*(z-h)/(2*sz*sz)) + math.Exp(-(z+h)*(z+h)/(2*sz*sz)))
	return c
}

// SiteForecast computes the maximum receptor concentration per hour for a
// site (the quantity compared against the pollution-peak threshold).
func SiteForecast(sources []Source, receptors []Receptor, met []Weather) []float64 {
	out := make([]float64, len(met))
	for h, w := range met {
		peak := 0.0
		for _, r := range receptors {
			c := 0.0
			for _, s := range sources {
				c += PlumeConcentration(s, r, w)
			}
			if c > peak {
				peak = c
			}
		}
		out[h] = peak
	}
	return out
}

// Ensemble generates `members` perturbed met forecasts from a control
// forecast, following §VIII: "an ensemble can be created by ... perturbations
// in initial 3D weather fields".
func Ensemble(control []Weather, members int, seed int64) [][]Weather {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Weather, members)
	for m := 0; m < members; m++ {
		pert := make([]Weather, len(control))
		biasW := rng.NormFloat64() * 0.5
		biasD := rng.NormFloat64() * 0.15
		biasT := rng.NormFloat64() * 0.8
		for i, w := range control {
			pert[i] = Weather{
				Hour:    w.Hour,
				WindMS:  math.Max(0.3, w.WindMS+biasW+rng.NormFloat64()*0.3),
				WindDir: w.WindDir + biasD + rng.NormFloat64()*0.05,
				TempC:   w.TempC + biasT + rng.NormFloat64()*0.3,
			}
		}
		out[m] = pert
	}
	return out
}

// EnsembleMeanForecast averages the per-member site forecasts.
func EnsembleMeanForecast(sources []Source, receptors []Receptor, members [][]Weather) []float64 {
	if len(members) == 0 {
		return nil
	}
	mean := make([]float64, len(members[0]))
	for _, met := range members {
		f := SiteForecast(sources, receptors, met)
		for i, v := range f {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(members))
	}
	return mean
}

// Corrector is the ML error-correction model: ridge regression of the
// log-concentration residual on the three observed weather parameters
// (T10m, wind direction, wind speed), per §II-C.
type Corrector struct {
	w []float64
	b float64
}

func correctionFeatures(w Weather) []float64 {
	return []float64{
		w.TempC,
		math.Sin(w.WindDir), math.Cos(w.WindDir),
		w.WindMS,
		w.WindMS * w.WindMS,
	}
}

// FitCorrector learns the multiplicative (log-space) bias between forecast
// and observed concentrations over a training window.
func FitCorrector(forecast, observed []float64, met []Weather) (*Corrector, error) {
	if len(forecast) != len(observed) || len(forecast) != len(met) {
		return nil, fmt.Errorf("airquality: corrector input length mismatch")
	}
	n := len(forecast)
	if n < 10 {
		return nil, fmt.Errorf("airquality: need >= 10 training hours, got %d", n)
	}
	d := len(correctionFeatures(met[0]))
	xtx := tensor.New(d+1, d+1)
	xty := tensor.New(d + 1)
	used := 0
	for i := 0; i < n; i++ {
		if forecast[i] <= 0 || observed[i] <= 0 {
			continue
		}
		used++
		y := math.Log(observed[i] / forecast[i])
		row := append(correctionFeatures(met[i]), 1)
		for a := 0; a <= d; a++ {
			for b := 0; b <= d; b++ {
				xtx.Set(xtx.At(a, b)+row[a]*row[b], a, b)
			}
			xty.Set(xty.At(a)+row[a]*y, a)
		}
	}
	if used < 10 {
		return nil, fmt.Errorf("airquality: only %d usable training hours", used)
	}
	for a := 0; a <= d; a++ {
		xtx.Set(xtx.At(a, a)+1e-3, a, a)
	}
	sol, err := tensor.SolveSPD(xtx, xty)
	if err != nil {
		return nil, err
	}
	c := &Corrector{w: make([]float64, d), b: sol.At(d)}
	for j := 0; j < d; j++ {
		c.w[j] = sol.At(j)
	}
	return c, nil
}

// Apply corrects one forecast value under the observed weather.
func (c *Corrector) Apply(forecast float64, w Weather) float64 {
	if forecast <= 0 {
		return forecast
	}
	f := correctionFeatures(w)
	logBias := c.b
	for j, v := range f {
		logBias += c.w[j] * v
	}
	// Clamp the correction to a sane multiplicative range.
	logBias = math.Max(-2, math.Min(2, logBias))
	return forecast * math.Exp(logBias)
}

// Decision is the daily emission-planning outcome (§II-C: reductions cost
// tens of thousands of euros per day, so trigger only when needed).
type Decision struct {
	Reduce       bool
	PredictedMax float64
}

// PlanDay decides whether to activate emission reduction for the next day
// given the (corrected) hourly forecast.
func PlanDay(forecast []float64, threshold float64) Decision {
	max := 0.0
	for _, v := range forecast {
		if v > max {
			max = v
		}
	}
	return Decision{Reduce: max > threshold, PredictedMax: max}
}

// DecisionCost scores a sequence of decisions against the truth: a false
// alarm costs the reduction price, a miss costs the penalty.
func DecisionCost(decisions []Decision, truthPeaks []float64, threshold, reductionCost, missPenalty float64) float64 {
	cost := 0.0
	for i, d := range decisions {
		exceeds := truthPeaks[i] > threshold
		switch {
		case d.Reduce && !exceeds:
			cost += reductionCost
		case !d.Reduce && exceeds:
			cost += missPenalty
		case d.Reduce && exceeds:
			cost += reductionCost // necessary reduction still costs money
		}
	}
	return cost
}
