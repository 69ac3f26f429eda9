// WRF ensemble: the weather-simulation use case (§II-A) — assimilate
// observations, quantify ensemble forecast skill, then build the
// production workflow from the workload registry: the ensemble DAG whose
// radiation stages run the RRTMG kernel compiled source-to-schedule
// (EKL → MLIR → HLS → Olympus), scheduled over the simulated cluster.
//
//	go run ./examples/wrfensemble
package main

import (
	"fmt"
	"log"

	"everest/internal/apps"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/wrf"
)

func main() {
	cfg := wrf.Config{NX: 16, NY: 16, NZ: 8, DT: 60, DX: 3000, RadiationEvery: 1}

	// 1. Data assimilation improves the initial condition (§II-A).
	exp, err := wrf.RunAssimilationExperiment(cfg, 10, 8, 40, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3D-Var: background RMSE %.3f K -> analysis %.3f K\n",
		exp.BackgroundRMSE, exp.AnalysisRMSE)

	// 2. Ensemble forecast skill.
	ens, err := wrf.RunEnsemble(cfg, 8, 30, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ensemble (%d members): spread %.3f K, mean RMSE %.3f K\n",
		ens.Members, ens.Spread, ens.MeanRMSE)

	// 3. Radiation cost share and Amdahl speedup from FPGA offload.
	s := wrf.NewState(cfg, 11)
	rad := wrf.NewRadiation(11, cfg.NZ)
	s.Run(rad, 10)
	frac := s.RadiationFraction()
	const kernelSpeedup = 8.0
	stepSpeedup := 1 / ((1 - frac) + frac/kernelSpeedup)
	fmt.Printf("radiation: %.0f%% of step cost; FPGA x%.0f -> step speedup %.2fx\n",
		frac*100, kernelSpeedup, stepSpeedup)

	// 4. The production workflow comes from the workload registry: the
	// ensemble DAG whose rad stages carry the compiled Fig. 3 kernel.
	app, err := apps.Build("weather", apps.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	c, _ := app.Kernel("rad0")
	fmt.Printf("registry : %s\n", app.Title)
	fmt.Printf("radiation kernel %s -> bitstream %s (HLS: %s)\n",
		c.KernelName, c.Design.Bitstream.ID, c.Report.String())
	fmt.Println("variants : (derived from the HLS schedule + CPU cost model)")
	for _, row := range c.Summary() {
		fmt.Printf("  %s\n", row)
	}

	// 5. Stage the compiled bitstream and serve the registry DAG alone on
	// the simulated cluster.
	sdkInst := sdk.New(sdk.DefaultCluster(4))
	for _, bs := range app.Bitstreams() {
		if err := sdkInst.Registry.Put(bs); err != nil {
			log.Fatal(err)
		}
		for _, node := range []string{"node00", "node01"} {
			if _, err := sdkInst.Deploy(bs.ID, node); err != nil {
				log.Fatal(err)
			}
		}
	}
	w := app.Workflow(0)
	sched, err := runtime.ServeAlone(sdkInst.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT}, w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster plan: %d tasks, makespan %.3gs, imbalance %.2f\n",
		len(sched.Assignments), sched.Makespan, sched.LoadImbalance())
	for _, a := range sched.Assignments {
		target := "cpu"
		if a.OnFPGA {
			target = "fpga"
		}
		fmt.Printf("  %-8s %-8s %-5s [%.3g, %.3g]s\n", a.Task, a.Node, target, a.Start, a.End)
	}

	// 6. The workflow carries the merged compiled operating points as its
	// tuner seeds (what adaptive serving consults).
	fmt.Print("tuner seeds:")
	for _, v := range w.Variants() {
		fmt.Printf(" %s=%.4gms", v.Name, v.ExpectedMs)
	}
	fmt.Println()
}
