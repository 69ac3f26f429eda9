// Forecaster: the per-region demand model behind predictive bitstream
// prefetch. Arrivals are bucketed into fixed windows per app; at every
// window roll the region predicts the next window's demand and warms the
// bitstream caches of apps about to get traffic. Two predictors run side
// by side — an EWMA that tracks sustained demand, and the registry's own
// KRR machinery (internal/energy, the regressor the energy app serves)
// fitted autoregressively over the window history, which is what can see
// a periodic traffic wave *returning* to a region whose recent windows
// are all zero. The forecast is the union (max) of the two: EWMA catches
// ramps the moment they start, KRR catches revisits before they start,
// and a false positive only costs prefetch bandwidth off the critical
// path.
package region

import (
	"math"

	"everest/internal/energy"
)

// Forecaster buckets per-app arrivals into fixed modelled-time windows
// and predicts the next window's count per app. Each app's window history
// is held once, in its KRR, which fits it in place and keeps its
// per-row solves in its factor's blocks (see series). It is driven
// entirely by modelled time from a single goroutine (the federation's
// serving path), so it needs no locking, and every prediction is
// deterministic.
type Forecaster struct {
	window  float64 // window length, modelled seconds
	alpha   float64 // EWMA smoothing factor
	lag     int     // autoregressive features: the last lag window counts
	minFit  int     // closed windows per app before the KRR engages
	maxHist int     // history cap: bounds the KRR's training rows and buffers

	cur    int64          // current open window index
	index  map[string]int // app -> position in apps and series
	apps   []string       // first-observed order: deterministic iteration
	series []series       // per-app state, indexed like apps
}

// series is one app's demand state. The app's window history lives in
// one buffer, its KRR's lagged series (energy.KRR.Append): the counts of
// the closed windows, oldest first. The KRR is refitted at every Predict
// on the history's lag windows, read in place (energy.KRR.FitLagged),
// with one scale for the whole history. While the history only grows,
// each refit extends the previous one's rows and is warm unless a new
// maximum entered them, which turns that one refit cold. The one row a
// closed window adds is the previous Predict's features, and that
// Predict's forward-solved kernel vector is the row's Cholesky entries,
// so the warm refit computes only the diagonal and extends the fit's
// forward solves by one entry. A roll therefore costs one kernel vector
// and one O(n²/2) elimination, both in Predict, and no back
// substitution. Once the history is trimmed at maxHist the rows shift and
// the refit is cold.
type series struct {
	count float64 // arrivals in the open window
	ewma  float64
	krr   *energy.KRR // its lagged series is the window history
}

// NewForecaster returns a forecaster over windows of the given modelled
// length. alpha is the EWMA smoothing factor; lag is the autoregressive
// feature depth of the KRR (it must cover a full period of any traffic
// pattern the forecaster should anticipate).
func NewForecaster(window, alpha float64, lag int) *Forecaster {
	if window <= 0 {
		window = 0.25
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if lag < 2 {
		lag = 16
	}
	return &Forecaster{
		window: window, alpha: alpha, lag: lag,
		minFit: lag + 4, maxHist: 8 * lag,
		index: make(map[string]int),
	}
}

// Apps returns the observed apps in first-seen order.
func (f *Forecaster) Apps() []string { return f.apps }

// Observe records one arrival of app at modelled time t, closing any
// windows t has moved past.
func (f *Forecaster) Observe(app string, t float64) {
	f.RollTo(t)
	i, ok := f.index[app]
	if !ok {
		i = len(f.apps)
		f.index[app] = i
		f.apps = append(f.apps, app)
		f.series = append(f.series, series{krr: energy.DefaultKRR()})
	}
	f.series[i].count++
}

// RollTo closes every window that ends at or before modelled time t,
// appending counts (zeros for empty windows — absence is signal) and
// updating the EWMAs.
func (f *Forecaster) RollTo(t float64) {
	idx := int64(math.Floor(t / f.window))
	for f.cur < idx {
		for i := range f.series {
			s := &f.series[i]
			c := s.count
			s.krr.Append(c)
			s.krr.Trim(f.maxHist)
			s.ewma = f.alpha*c + (1-f.alpha)*s.ewma
			s.count = 0
		}
		f.cur++
	}
}

// Predict returns the expected arrivals of app in the next window: the
// max of the EWMA baseline and, once enough history exists, the KRR
// autoregression. Falls back to the EWMA whenever the fit or prediction
// fails, and never returns a negative demand.
func (f *Forecaster) Predict(app string) float64 {
	i, ok := f.index[app]
	if !ok {
		return 0
	}
	s := &f.series[i]
	base := s.ewma
	if len(s.krr.Series()) >= f.minFit {
		if krr, err := f.fitPredict(s); err == nil && krr > base {
			base = krr
		}
	}
	if base < 0 {
		return 0
	}
	return base
}

// fitPredict refits the app's KRR on its lagged window counts — row i is
// hist[i:i+lag], its target hist[i+lag] — and predicts the next window
// from the most recent lag counts.
func (f *Forecaster) fitPredict(s *series) (float64, error) {
	if err := s.krr.FitLagged(f.lag); err != nil {
		return 0, err
	}
	h := s.krr.Series()
	return s.krr.Predict(h[len(h)-f.lag:])
}
