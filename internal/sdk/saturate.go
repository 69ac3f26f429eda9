package sdk

import (
	"fmt"
	"sort"

	"everest/internal/apps"
	"everest/internal/quantile"
	"everest/internal/variants"
)

// This file is the saturation harness around the fleet tier: sweep the
// open-mode arrival rate over a ladder, measure latency percentiles and
// achieved throughput at each offered load, and report the achieved
// throughput at the highest load that still meets the p95 SLO — the
// serving-capacity number BenchmarkFleetThroughput gates in CI.

// Percentile returns the q-quantile (0 < q <= 1) of xs by the
// nearest-rank method (deterministic: no interpolation). Returns 0 for
// empty input.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	return s[quantile.NearestRank(q, int64(len(s)))-1]
}

// SaturationPoint is one rung of the arrival-rate ladder.
type SaturationPoint struct {
	Gap         float64 // modelled interarrival seconds
	OfferedRate float64 // workflows per modelled second offered (1/Gap)
	Throughput  float64 // achieved workflows per modelled second
	P50         float64
	P95         float64
	Completed   int
	Rejected    int
	SLOMet      bool
	// Apps holds the rung's per-application latency distributions when
	// the ladder served the mixed suite (nil otherwise).
	Apps map[string]TenantLatency
}

func (p SaturationPoint) offered() float64  { return p.OfferedRate }
func (p SaturationPoint) achieved() float64 { return p.Throughput }
func (p SaturationPoint) met() bool         { return p.SLOMet }

// DefaultSaturationGaps is the standard offered-load ladder: interarrival
// gaps halving from well under saturation to far past it.
func DefaultSaturationGaps() []float64 {
	return []float64{0.64, 0.32, 0.16, 0.08, 0.04, 0.02, 0.01, 0.005, 0.0025}
}

// Saturate serves the scenario once per gap in the ladder (open arrival
// mode, same compiled kernel and workload each time) and returns every
// point plus the best: the highest throughput among rungs whose p95 met
// the SLO (see climb).
func (sc FleetScenario) Saturate(c *variants.Compiled, gaps []float64) ([]SaturationPoint, SaturationPoint, error) {
	return sc.saturate(gaps, func(run FleetScenario) (FleetResult, error) { return run.RunWith(c) })
}

// SaturateSuite sweeps the same offered-load ladder serving the built
// application suite (the mixed EVEREST use-case stream) instead of the
// single compiled kernel. Every point carries its per-application latency
// percentiles in Apps.
func (sc FleetScenario) SaturateSuite(s *apps.Suite, gaps []float64) ([]SaturationPoint, SaturationPoint, error) {
	return sc.saturate(gaps, func(run FleetScenario) (FleetResult, error) { return run.RunSuite(s) })
}

// saturate climbs the gap ladder (the default one when gaps is empty),
// serving one open-mode pass of the scenario per rung.
func (sc FleetScenario) saturate(gaps []float64, serve func(FleetScenario) (FleetResult, error)) ([]SaturationPoint, SaturationPoint, error) {
	if len(gaps) == 0 {
		gaps = DefaultSaturationGaps()
	}
	sc.Closed = false
	return climb(gaps, "gap", func(gap float64) (SaturationPoint, error) {
		sc.ArrivalGap = gap
		res, err := serve(sc)
		return SaturationPoint{
			Gap: gap, OfferedRate: 1 / gap,
			Throughput: res.Throughput, P50: res.P50, P95: res.P95,
			Completed: res.Completed, Rejected: res.Rejected,
			SLOMet: res.SLOMet, Apps: res.Apps,
		}, err
	})
}

// rung is a measured point of an offered-load ladder.
type rung interface {
	offered() float64  // offered load
	achieved() float64 // achieved throughput
	met() bool         // the run sustained the SLO
}

// climb serves one run per rung of an offered-load ladder and returns
// every point plus the best: the highest achieved throughput among rungs
// that met the SLO, ties going to the lower offered load so that
// equal-throughput rungs resolve the same way however the ladder is
// ordered. A zero best means no rung met the SLO. Non-positive rungs are
// rejected, and so are duplicates: serving a rung twice could only
// re-measure it, and which copy won would be an accident of position.
func climb[P rung](rungs []float64, unit string, serve func(float64) (P, error)) ([]P, P, error) {
	var best, zero P
	seen := make(map[float64]bool, len(rungs))
	var points []P
	for _, r := range rungs {
		if r <= 0 {
			return nil, zero, fmt.Errorf("sdk: saturation %s must be > 0, got %g", unit, r)
		}
		if seen[r] {
			return nil, zero, fmt.Errorf("sdk: duplicate saturation %s %g", unit, r)
		}
		seen[r] = true
		p, err := serve(r)
		if err != nil {
			return nil, zero, fmt.Errorf("sdk: saturation at %s %g: %w", unit, r, err)
		}
		points = append(points, p)
		if p.met() && (p.achieved() > best.achieved() ||
			(p.achieved() == best.achieved() && p.offered() < best.offered())) {
			best = p
		}
	}
	return points, best, nil
}
