package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"everest/internal/airquality"
	"everest/internal/energy"
	"everest/internal/sdk"
	"everest/internal/traffic"
	"everest/internal/wrf"
)

// E11 — WRF ensemble with FPGA-accelerated radiation (§II-A, §VIII):
// Amdahl speedup of the step, ensemble capacity per deadline, and the
// assimilation benefit.
func E11() (Table, error) {
	t := Table{
		ID:     "E11",
		Title:  "Accelerated WRF: radiation share, step speedup, ensemble capacity",
		Header: []string{"quantity", "value"},
	}
	cfg := wrf.Config{NX: 16, NY: 16, NZ: 8, DT: 60, DX: 3000, RadiationEvery: 1}
	s := wrf.NewState(cfg, 11)
	rad := wrf.NewRadiation(11, cfg.NZ)
	s.Run(rad, 10)
	frac := s.RadiationFraction()
	t.Rows = append(t.Rows, []string{"radiation share of step cost", fmt.Sprintf("%.1f%%", frac*100)})
	t.metric("radiation_fraction", frac)

	// FPGA acceleration of radiation: modelled 8x kernel speedup (from the
	// E3/E4 datapath numbers) -> Amdahl step speedup.
	const kernelSpeedup = 8.0
	stepSpeedup := 1 / ((1 - frac) + frac/kernelSpeedup)
	t.Rows = append(t.Rows, []string{"radiation kernel speedup (FPGA)", fmt.Sprintf("%.1fx", kernelSpeedup)})
	t.Rows = append(t.Rows, []string{"whole-step speedup (Amdahl)", fmt.Sprintf("%.2fx", stepSpeedup)})
	t.metric("step_speedup", stepSpeedup)

	// Ensemble capacity in a fixed wall-clock budget grows by the same
	// factor — the paper's "more frequent and possibly more accurate
	// simulations" enabler.
	baseMembers := 8
	t.Rows = append(t.Rows, []string{"ensemble members per deadline",
		fmt.Sprintf("%d -> %d", baseMembers, int(float64(baseMembers)*stepSpeedup))})

	// Assimilation benefit.
	exp, err := wrf.RunAssimilationExperiment(cfg, 10, 8, 40, 11)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"background T RMSE (K)", f3(exp.BackgroundRMSE)})
	t.Rows = append(t.Rows, []string{"analysis T RMSE (K)", f3(exp.AnalysisRMSE)})
	t.Rows = append(t.Rows, []string{"forecast RMSE free/assimilated",
		fmt.Sprintf("%s / %s", f3(exp.ForecastRMSEFree), f3(exp.ForecastRMSEAssim))})
	t.metric("analysis_gain", exp.BackgroundRMSE/exp.AnalysisRMSE)

	// Ensemble skill.
	ens, err := wrf.RunEnsemble(cfg, 8, 30, 11)
	if err != nil {
		return t, err
	}
	avgMember := 0.0
	for _, r := range ens.MemberRMSE {
		avgMember += r
	}
	avgMember /= float64(len(ens.MemberRMSE))
	t.Rows = append(t.Rows, []string{"ensemble mean RMSE vs avg member",
		fmt.Sprintf("%s vs %s", f3(ens.MeanRMSE), f3(avgMember))})
	t.metric("ensemble_gain", avgMember/ens.MeanRMSE)
	return t, nil
}

// E12 — renewable-energy prediction backtest (§II-B): KRR vs baselines.
func E12() (Table, error) {
	t := Table{
		ID:     "E12",
		Title:  "Wind-power forecast backtest (12-turbine farm, 1600h synthetic year)",
		Header: []string{"model", "MAE kW", "vs KRR"},
	}
	farm := energy.NewFarm(12)
	ds := energy.SynthesizeYear(7, 1600, farm)
	res, err := energy.Backtest(ds, 0.6, energy.DefaultKRR())
	if err != nil {
		return t, err
	}
	rows := []struct {
		name string
		mae  float64
	}{
		{"Kernel Ridge (paper's algorithm)", res.MAEKRR},
		{"linear regression", res.MAELinear},
		{"physical power curve", res.MAEPhysical},
		{"persistence (24h)", res.MAEPersistence},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.name, f3(r.mae), fmt.Sprintf("%.2fx", r.mae/res.MAEKRR)})
	}
	t.metric("krr_mae", res.MAEKRR)
	t.metric("persistence_mae", res.MAEPersistence)
	t.metric("physical_mae", res.MAEPhysical)
	return t, nil
}

// E13 — air-quality monitoring (§II-C): ensemble + ML correction and the
// emission-reduction decision cost.
func E13() (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "Air-quality forecast: ensemble + ML correction + decision layer",
		Header: []string{"pipeline", "log-error", "decision cost k€ (30 days)"},
	}
	sources := []airquality.Source{
		{X: 0, Y: 0, Height: 40, RateGS: 80},
		{X: 150, Y: 50, Height: 25, RateGS: 30},
	}
	receptors := []airquality.Receptor{
		{X: 800, Y: 0, Z: 1.5}, {X: 1500, Y: 200, Z: 1.5}, {X: 2500, Y: -300, Z: 1.5},
	}
	hours := 24 * 36
	met := make([]airquality.Weather, hours)
	for h := 0; h < hours; h++ {
		met[h] = airquality.Weather{
			Hour:    h,
			WindMS:  3 + 1.5*math.Sin(2*math.Pi*float64(h)/24) + 0.8*math.Sin(float64(h)/53),
			WindDir: 0.3 * math.Sin(2*math.Pi*float64(h)/48),
			TempC:   12 + 6*math.Sin(2*math.Pi*float64(h%24-6)/24),
		}
	}
	forecast := airquality.SiteForecast(sources, receptors, met)
	rng := rand.New(rand.NewSource(13))
	observed := make([]float64, hours)
	for i, v := range forecast {
		bias := math.Exp(-0.22*(met[i].WindMS-4) + 0.02*(met[i].TempC-12))
		observed[i] = v * bias * math.Exp(rng.NormFloat64()*0.05)
	}
	split := 24 * 6
	corr, err := airquality.FitCorrector(forecast[:split], observed[:split], met[:split])
	if err != nil {
		return t, err
	}

	logErr := func(pred []float64) float64 {
		s, n := 0.0, 0
		for i := split; i < hours; i++ {
			if pred[i] <= 0 || observed[i] <= 0 {
				continue
			}
			s += math.Abs(math.Log(pred[i] / observed[i]))
			n++
		}
		return s / float64(n)
	}
	corrected := make([]float64, hours)
	copy(corrected, forecast)
	for i := split; i < hours; i++ {
		corrected[i] = corr.Apply(forecast[i], met[i])
	}

	// Decision layer over daily peaks.
	threshold := sdk.Percentile(observed[split:], 0.8)
	decide := func(pred []float64) float64 {
		var decisions []airquality.Decision
		var truthPeaks []float64
		for d := split / 24; d < hours/24; d++ {
			dayPred := pred[d*24 : (d+1)*24]
			dayObs := observed[d*24 : (d+1)*24]
			decisions = append(decisions, airquality.PlanDay(dayPred, threshold))
			peak := 0.0
			for _, v := range dayObs {
				if v > peak {
					peak = v
				}
			}
			truthPeaks = append(truthPeaks, peak)
		}
		return airquality.DecisionCost(decisions, truthPeaks, threshold, 20, 100) // k€
	}

	rawErr, corrErr := logErr(forecast), logErr(corrected)
	t.Rows = append(t.Rows,
		[]string{"raw plume forecast", f3(rawErr), f3(decide(forecast))},
		[]string{"+ ML correction (T10m, dir, speed)", f3(corrErr), f3(decide(corrected))},
	)
	t.metric("raw_logerr", rawErr)
	t.metric("corrected_logerr", corrErr)
	t.Notes = append(t.Notes, "correction trained on 6 days, evaluated on 30; reduction cost 20k€/day, miss penalty 100k€")
	return t, nil
}

// E14 — traffic models (§II-D): map-matching accuracy, GMM with incomplete
// data, CNN speed prediction, PTDR quantiles.
func E14() (Table, error) {
	t := Table{
		ID:     "E14",
		Title:  "Traffic model suite (grid network, synthetic FCD)",
		Header: []string{"model", "metric", "value"},
	}
	net := traffic.GridNetwork(6, 6, 200, 1)

	// Map matching over several traces.
	accSum, nTraces := 0.0, 0
	for seed := int64(2); seed < 10; seed++ {
		trace, err := traffic.SimulateTrip(net, seed, 8, 10, 80)
		if err != nil {
			continue
		}
		res, err := traffic.MatchTrace(net, trace, 60, 10, 30, 4)
		if err != nil {
			continue
		}
		accSum += traffic.MatchAccuracy(net, trace, res)
		nTraces++
	}
	acc := accSum / float64(nTraces)
	t.Rows = append(t.Rows, []string{"HMM map matching", "edge accuracy", fmt.Sprintf("%.1f%%", acc*100)})
	t.metric("match_accuracy", acc)

	// GMM with incomplete data.
	rng := rand.New(rand.NewSource(14))
	var data [][]float64
	for i := 0; i < 400; i++ {
		base := 8.0
		if i%2 == 1 {
			base = 16
		}
		x := base + rng.NormFloat64()*0.8
		y := 2*base + rng.NormFloat64()*0.8
		if rng.Float64() < 0.3 {
			y = math.NaN()
		}
		data = append(data, []float64{x, y})
	}
	g := traffic.NewGMM(2, 2)
	hist, err := g.Fit(data, 2, 60, 1e-6)
	if err != nil {
		return t, err
	}
	pred := g.Predict([]float64{8, math.NaN()}, 1)
	t.Rows = append(t.Rows, []string{"GMM (30% missing)", "EM iters / cond. pred (want ~16)",
		fmt.Sprintf("%d / %.1f", len(hist), pred)})
	t.metric("gmm_pred", pred)

	// CNN speed prediction vs persistence.
	var curves [][]float64
	for d := int64(0); d < 6; d++ {
		curves = append(curves, traffic.DailySpeedCurve(14, d))
	}
	xs, ys := traffic.WindowDataset(curves, 8)
	cnn, err := traffic.NewCNN(8, 3, 4, 1)
	if err != nil {
		return t, err
	}
	if _, err := cnn.Fit(xs, ys, 300, 3e-2); err != nil {
		return t, err
	}
	test := traffic.DailySpeedCurve(14, 99)
	txs, tys := traffic.WindowDataset([][]float64{test}, 8)
	var cnnErr, persErr float64
	for i := range txs {
		p, err := cnn.Predict(txs[i])
		if err != nil {
			return t, err
		}
		cnnErr += math.Abs(p - tys[i])
		persErr += math.Abs(txs[i][len(txs[i])-1] - tys[i])
	}
	cnnErr /= float64(len(txs))
	persErr /= float64(len(txs))
	t.Rows = append(t.Rows, []string{"CNN speed predictor", "MAE vs persistence (m/s)",
		fmt.Sprintf("%.2f vs %.2f", cnnErr, persErr)})
	t.metric("cnn_mae", cnnErr)
	t.metric("persistence_mae", persErr)

	// PTDR distribution.
	profile := traffic.BuildProfile(net, 7)
	route, _, err := net.ShortestPath(0, 35)
	if err != nil {
		return t, err
	}
	res, err := traffic.MonteCarlo(net, profile, route, 17.5*3600, 20000, 11)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"PTDR (rush hour)", "P05/P50/P95 s",
		fmt.Sprintf("%.0f/%.0f/%.0f", res.P05, res.P50, res.P95)})
	t.metric("ptdr_p95_ratio", res.P95/res.P50)
	return t, nil
}

// All returns the full experiment registry in order.
func All() []func() (Table, error) {
	return []func() (Table, error){
		E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13, E14,
	}
}
