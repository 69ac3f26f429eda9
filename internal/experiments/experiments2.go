package experiments

import (
	"fmt"
	"math/rand"

	"everest/internal/anomaly"
	"everest/internal/autotuner"
	"everest/internal/base2"
	"everest/internal/hls"
	"everest/internal/olympus"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/tensor"
	"everest/internal/traffic"
)

// E6 — resource manager (§VI-A): HEFT vs FIFO on DAG families, plus
// failure recovery.
func E6() (Table, error) {
	t := Table{
		ID:     "E6",
		Title:  "Resource manager: scheduling policies and failure recovery (4 nodes)",
		Header: []string{"workload", "policy", "makespan s", "transfers", "imbalance"},
	}
	cluster := sdk.DefaultCluster(4)

	build := func(kind string) (*runtime.Workflow, error) {
		w := runtime.NewWorkflow()
		switch kind {
		case "chain":
			for i := 0; i < 12; i++ {
				spec := runtime.TaskSpec{Name: fmt.Sprintf("c%02d", i), Flops: 2e10,
					InputBytes: 1 << 22, OutputBytes: 1 << 22}
				if i > 0 {
					spec.Deps = []string{fmt.Sprintf("c%02d", i-1)}
				}
				if err := w.Submit(spec); err != nil {
					return nil, err
				}
			}
		case "fork-join":
			if err := w.Submit(runtime.TaskSpec{Name: "src", Flops: 1e9, OutputBytes: 1 << 22}); err != nil {
				return nil, err
			}
			var mids []string
			for i := 0; i < 12; i++ {
				name := fmt.Sprintf("m%02d", i)
				if err := w.Submit(runtime.TaskSpec{Name: name, Deps: []string{"src"},
					Flops: 3e10, InputBytes: 1 << 22, OutputBytes: 1 << 22}); err != nil {
					return nil, err
				}
				mids = append(mids, name)
			}
			if err := w.Submit(runtime.TaskSpec{Name: "sink", Deps: mids, Flops: 1e9,
				InputBytes: 1 << 24}); err != nil {
				return nil, err
			}
		case "wrf-ensemble":
			if err := w.Submit(runtime.TaskSpec{Name: "ic", Flops: 1e9, OutputBytes: 1 << 24}); err != nil {
				return nil, err
			}
			var members []string
			for m := 0; m < 8; m++ {
				name := fmt.Sprintf("wrf%02d", m)
				if err := w.Submit(runtime.TaskSpec{Name: name, Deps: []string{"ic"},
					Flops: 8e10, InputBytes: 1 << 24, OutputBytes: 1 << 24}); err != nil {
					return nil, err
				}
				members = append(members, name)
			}
			if err := w.Submit(runtime.TaskSpec{Name: "stats", Deps: members, Flops: 5e9,
				InputBytes: 1 << 26}); err != nil {
				return nil, err
			}
		}
		return w, nil
	}

	for _, kind := range []string{"chain", "fork-join", "wrf-ensemble"} {
		for _, pol := range []runtime.Policy{runtime.PolicyHEFT, runtime.PolicyFIFO} {
			w, err := build(kind)
			if err != nil {
				return t, err
			}
			sched, err := runtime.ServeAlone(cluster, runtime.EngineConfig{Policy: pol}, w)
			if err != nil {
				return t, err
			}
			t.Rows = append(t.Rows, []string{kind, pol.String(), f3(sched.Makespan),
				fmt.Sprintf("%d", sched.Transfers), fmt.Sprintf("%.2f", sched.LoadImbalance())})
			t.metric(kind+"_"+pol.String(), sched.Makespan)
		}
	}

	// Failure recovery on the fork-join DAG: the node running the fourth
	// assignment dies as that task starts.
	heft := runtime.EngineConfig{Policy: runtime.PolicyHEFT}
	w, err := build("fork-join")
	if err != nil {
		return t, err
	}
	base, err := runtime.ServeAlone(cluster, heft, w)
	if err != nil {
		return t, err
	}
	if w, err = build("fork-join"); err != nil {
		return t, err
	}
	heft.Failures = []runtime.NodeFailure{{Node: base.Assignments[3].Node, AtTime: base.Assignments[3].Start}}
	rec, err := runtime.ServeAlone(cluster, heft, w)
	if err != nil {
		return t, err
	}
	restarts := 0
	for _, a := range rec.Assignments {
		if a.Restart {
			restarts++
		}
	}
	t.Rows = append(t.Rows, []string{"fork-join+failure", "heft",
		f3(rec.Makespan), fmt.Sprintf("%d restarts", restarts),
		fmt.Sprintf("%.2fx base", rec.Makespan/base.Makespan)})
	t.metric("recovery_inflation", rec.Makespan/base.Makespan)
	return t, nil
}

// E7 — mARGOt dynamic autotuning (§VI-C): variant selection adapts when the
// FPGA disappears (VF unplugged) and recovers when it returns.
func E7() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "mARGOt autotuning: PTDR variant selection under environment changes",
		Header: []string{"phase", "selected variant", "expected time ms", "expected energy J"},
	}
	knobs := []autotuner.Knob{{Name: "impl", Values: []string{"cpu1", "cpu16", "fpga"}}}
	points := []autotuner.OperatingPoint{
		{Config: autotuner.Config{"impl": "cpu1"},
			Metrics: map[autotuner.Metric]float64{autotuner.MetricTimeMs: 840, autotuner.MetricEnergyJ: 42}},
		{Config: autotuner.Config{"impl": "cpu16"},
			Metrics: map[autotuner.Metric]float64{autotuner.MetricTimeMs: 95, autotuner.MetricEnergyJ: 118}},
		{Config: autotuner.Config{"impl": "fpga"},
			Metrics: map[autotuner.Metric]float64{autotuner.MetricTimeMs: 31, autotuner.MetricEnergyJ: 24}},
	}
	goals := []autotuner.Goal{{Metric: autotuner.MetricTimeMs, Value: 120}}
	at, err := autotuner.New(knobs, points, goals, autotuner.Rank{Metric: autotuner.MetricEnergyJ, Minimize: true})
	if err != nil {
		return t, err
	}
	record := func(phase string) {
		sel := at.Select()
		t.Rows = append(t.Rows, []string{phase, sel.Config["impl"],
			f3(sel.Metrics[autotuner.MetricTimeMs]), f3(sel.Metrics[autotuner.MetricEnergyJ])})
	}
	record("steady state")
	sel0 := at.Select().Config["impl"]
	t.metric("initial_fpga", boolTo01(sel0 == "fpga"))

	// FPGA VF unplugged: observed fpga times degrade to software fallback.
	for i := 0; i < 8; i++ {
		if err := at.Observe(autotuner.Config{"impl": "fpga"}, autotuner.MetricTimeMs, 2100); err != nil {
			return t, err
		}
	}
	record("fpga unplugged")
	t.metric("degraded_cpu16", boolTo01(at.Select().Config["impl"] == "cpu16"))

	// FPGA returns.
	for i := 0; i < 14; i++ {
		if err := at.Observe(autotuner.Config{"impl": "fpga"}, autotuner.MetricTimeMs, 31); err != nil {
			return t, err
		}
	}
	record("fpga recovered")
	t.metric("recovered_fpga", boolTo01(at.Select().Config["impl"] == "fpga"))
	t.Notes = append(t.Notes, "goal: exec_time <= 120ms; rank: minimize energy; hot-plug latency 50ms per VF op")
	return t, nil
}

// E8 — anomaly detection AutoML (§VII): TPE vs random search at equal trial
// budget, plus the detection node's JSON output.
func E8() (Table, error) {
	t := Table{
		ID:     "E8",
		Title:  "AutoML model selection: TPE vs random search (30 trials, F1 on planted anomalies)",
		Header: []string{"sampler", "best F1", "best detector"},
	}
	rng := rand.New(rand.NewSource(8))
	train := anomalyData(rng, 250, 0)
	val, labels := anomalyDataLabeled(rng, 250, 12)

	run := func(s anomaly.Sampler) (*anomaly.SelectionResult, error) {
		return anomaly.SelectModel(train, val, labels, 12.0/250, 30, s)
	}
	tpe, err := anomaly.NewTPE(anomaly.DetectorSpace(), 7)
	if err != nil {
		return t, err
	}
	resT, err := run(tpe)
	if err != nil {
		return t, err
	}
	rnd, err := anomaly.NewRandomSearch(anomaly.DetectorSpace(), 7)
	if err != nil {
		return t, err
	}
	resR, err := run(rnd)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"TPE (Optuna-style)", f3(resT.BestF1), resT.Best.Cats["detector"]},
		[]string{"random search", f3(resR.BestF1), resR.Best.Cats["detector"]},
	)
	t.metric("tpe_f1", resT.BestF1)
	t.metric("random_f1", resR.BestF1)

	// Detection node JSON (the §VII output artifact).
	node := &anomaly.DetectionNode{Detector: resT.Detector}
	if err := node.CalibrateThreshold(train, 0.05); err != nil {
		return t, err
	}
	rep, err := node.Detect(val)
	if err != nil {
		return t, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("detection node flagged %d/%d points above threshold %.3g",
		len(rep.Anomalies), val.Shape()[0], rep.Threshold))
	return t, nil
}

func anomalyData(rng *rand.Rand, n, planted int) *tensor.Tensor {
	d, _ := anomalyDataLabeled(rng, n, planted)
	return d
}

func anomalyDataLabeled(rng *rand.Rand, n, planted int) (*tensor.Tensor, []bool) {
	x := tensor.New(n, 2)
	labels := make([]bool, n)
	for i := 0; i < n; i++ {
		x.Set(rng.NormFloat64(), i, 0)
		x.Set(rng.NormFloat64()*0.5+1, i, 1)
	}
	for k := 0; k < planted; k++ {
		i := (k*19 + 5) % n
		x.Set(9+rng.Float64()*3, i, 0)
		x.Set(-7-rng.Float64()*2, i, 1)
		labels[i] = true
	}
	return x, labels
}

// E9 — PTDR on FPGA vs CPU (§VIII): Monte-Carlo travel-time sampling,
// sample-count sweep, PCIe- vs network-attached targets.
func E9() (Table, error) {
	t := Table{
		ID:     "E9",
		Title:  "PTDR kernel: CPU vs FPGA (Alveo U55C, cloudFPGA), route len 200",
		Header: []string{"samples", "CPU 16c s", "U55C s", "speedup", "cloudFPGA s"},
	}
	routeLen := 200
	cpu := platform.XeonModel()
	u55c := platform.AlveoU55C()
	cloud := platform.CloudFPGA()

	for _, samples := range []int{1000, 10000, 100000} {
		flops := traffic.FlopsPerSample(routeLen) * float64(samples)
		bytesIn, bytesOut := traffic.PTDRBytes(routeLen, samples)
		cpuT := cpu.TimeSeconds(flops*12, bytesIn+bytesOut, 16) // 12x: exp/log are multi-flop

		kern := traffic.PTDRKernel(routeLen, samples)
		design, err := genPTDR(kern, u55c)
		if err != nil {
			return t, err
		}
		tl, err := platform.Execute(u55c, design, platform.Workload{
			BytesIn: bytesIn, BytesOut: bytesOut, Batches: 4})
		if err != nil {
			return t, err
		}

		cloudDesign, err := genPTDR(kern, cloud)
		var cloudT float64
		if err != nil {
			cloudT = -1
		} else {
			ctl, err := platform.Execute(cloud, cloudDesign, platform.Workload{
				BytesIn: bytesIn, BytesOut: bytesOut, Batches: 4})
			if err != nil {
				cloudT = -1
			} else {
				cloudT = ctl.Total
			}
		}
		speedup := cpuT / tl.Total
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", samples), f3(cpuT), f3(tl.Total),
			fmt.Sprintf("%.1fx", speedup), f3(cloudT),
		})
		t.metric(fmt.Sprintf("speedup_%d", samples), speedup)
	}
	t.Notes = append(t.Notes, "speedup grows with samples: transfers amortize (paper: PTDR deployed on u55c cluster)")
	return t, nil
}

func genPTDR(k hls.Kernel, dev *platform.Device) (platform.Bitstream, error) {
	design, err := olympus.Generate(k, hls.VitisBackend{}, dev, nil, olympus.Options{
		SharePLM: true, DoubleBuffer: true, Replicate: true, MaxReplicas: 8, PackData: true,
	})
	if err != nil {
		return platform.Bitstream{}, err
	}
	return design.Bitstream, nil
}

// E10 — map-matching placement exploration (§VIII, Fig. 4): per-sub-kernel
// CPU/FPGA decision as the candidate workload scales.
func E10() (Table, error) {
	t := Table{
		ID:     "E10",
		Title:  "Map-matching sub-kernel placement (compile-time CPU/FPGA decision)",
		Header: []string{"batch (traces)", "projection", "build_trellis", "viterbi", "interpolate"},
	}
	cpu := platform.XeonModel()
	dev := platform.AlveoU55C()

	for _, batch := range []int{10, 1000, 100000} {
		// Per-trace stage costs (flops) from profiling the Go stages:
		// projection dominates (candidate search over edges).
		pointsPerTrace := 40.0
		edges := 2000.0
		projFlops := float64(batch) * pointsPerTrace * edges * 12
		trellisFlops := float64(batch) * pointsPerTrace * 16 * 40
		viterbiFlops := float64(batch) * pointsPerTrace * 16 * 4
		interpFlops := float64(batch) * pointsPerTrace * 8

		stages := []sdk.StageCost{
			{Name: "projection", Flops: projFlops, Offloadable: true,
				Kernel: hls.Kernel{Name: "projection",
					Nest: hls.LoopNest{TripCounts: []int{batch, int(pointsPerTrace), int(edges)},
						Body: hls.OpMix{Adds: 4, Muls: 6, Divs: 1, Loads: 4, Stores: 1}},
					Format: base2.Float32{}},
				BytesIn: int64(batch) * int64(pointsPerTrace) * 16, BytesOut: int64(batch) * 64},
			{Name: "build_trellis", Flops: trellisFlops, Offloadable: true,
				Kernel: hls.Kernel{Name: "trellis",
					Nest: hls.LoopNest{TripCounts: []int{batch, int(pointsPerTrace), 16},
						Body: hls.OpMix{Adds: 6, Muls: 4, Special: 1, Loads: 4, Stores: 2}},
					Format: base2.Float32{}},
				BytesIn: int64(batch) * 512, BytesOut: int64(batch) * 512},
			{Name: "viterbi", Flops: viterbiFlops, Offloadable: false},
			{Name: "interpolate", Flops: interpFlops, Offloadable: false},
		}
		ps, err := sdk.ExplorePlacement(stages, cpu, dev, hls.VitisBackend{})
		if err != nil {
			return t, err
		}
		byName := map[string]string{}
		for _, p := range ps {
			byName[p.Stage] = p.Target
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", batch),
			byName["projection"], byName["build_trellis"], byName["viterbi"], byName["interpolate"]})
		t.metric(fmt.Sprintf("proj_fpga_%d", batch), boolTo01(byName["projection"] == "fpga"))
	}
	t.Notes = append(t.Notes,
		"small batches stay on CPU (transfer dominated); large batches offload projection/trellis — the paper's flexibility claim")
	return t, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
