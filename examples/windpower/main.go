// Wind power: the renewable-energy prediction use case (§II-B) — Kernel
// Ridge Regression over WRF-style forecasts and farm history, backtested
// against persistence, linear and physical baselines.
//
//	go run ./examples/windpower
package main

import (
	"fmt"
	"log"

	"everest/internal/energy"
	"everest/internal/sdk"
	"everest/internal/variants"
)

func main() {
	farm := energy.NewFarm(12)
	fmt.Printf("wind farm: %d turbines x 2 MW, hub-height shear %.2f\n",
		len(farm.Turbines), farm.HeightShear)

	// One synthetic "year" of hourly history (the paper trains on at least
	// one year of data).
	ds := energy.SynthesizeYear(7, 1600, farm)
	fmt.Printf("history: %d hours (train 60%% / test 40%%)\n", len(ds.Samples))

	res, err := energy.Backtest(ds, 0.6, energy.DefaultKRR())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbacktest MAE (kW):")
	fmt.Printf("  kernel ridge      : %8.0f   <- the paper's algorithm\n", res.MAEKRR)
	fmt.Printf("  linear regression : %8.0f\n", res.MAELinear)
	fmt.Printf("  physical curve    : %8.0f\n", res.MAEPhysical)
	fmt.Printf("  persistence (24h) : %8.0f\n", res.MAEPersistence)
	fmt.Printf("\nKRR improves on the physical forecast by %.0f%%\n",
		(1-res.MAEKRR/res.MAEPhysical)*100)

	// A single live prediction.
	krr := energy.DefaultKRR()
	// Refit on everything for the "production" model.
	n := len(ds.Samples)
	lastSample := ds.Samples[n-1]
	if _, err := energy.Backtest(ds, 0.9, krr); err != nil {
		log.Fatal(err)
	}
	pred, err := krr.Predict(energy.Features(farm, lastSample))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlatest hour: forecast wind %.1f m/s -> predicted %.0f kW (actual %.0f kW)\n",
		lastSample.ForecastWS, pred, lastSample.PowerKW)

	// The same KRR inference, carried through the SDK loop: the EKL kernel
	// compiled source-to-schedule, with cpu1/cpu16/fpga operating points
	// derived from the HLS schedule and the CPU cost model. This is what
	// the adaptive runtime's tuners are seeded with (basecamp bench
	// compiled serves it under faults).
	c, err := variants.CompileExample("windpower", sdk.DefaultCompileOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiled kernel %s (%s frontend): %s\n", c.KernelName, c.Frontend, c.Report)
	fmt.Println("derived operating points:")
	for _, row := range c.Summary() {
		fmt.Printf("  %s\n", row)
	}
	tn, err := c.NewTuner()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuner pick: %s\n", tn.Best())
}
