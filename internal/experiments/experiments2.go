package experiments

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"

	"everest/internal/anomaly"
	"everest/internal/base2"
	"everest/internal/hls"
	"everest/internal/olympus"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/tensor"
	"everest/internal/traffic"
	"everest/internal/virt"
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

// E7 — mARGOt dynamic autotuning (§VI-B/C) through the serving system:
// the guest's SR-IOV VF is unplugged and plugged back between serves, the
// hypervisor's notifications reach the adaptive engine, and its
// per-workflow tuners move the Monte-Carlo tasks off the FPGA and back.
func E7() (Table, error) {
	t := Table{
		ID:     "E7",
		Title:  "mARGOt autotuning: PTDR variant selection across a VF unplug and replug (served, 1 node)",
		Header: []string{"phase", "opened by", "at s", "mc task variants", "mean span s"},
	}
	run, err := adaptLoop()
	if err != nil {
		return t, err
	}
	flags := [3]string{"initial_fpga", "degraded_cpu16", "recovered_fpga"}
	want := [3]runtime.Variant{runtime.VariantFPGA, runtime.VariantCPU16, runtime.VariantFPGA}
	for i, ph := range run.phases {
		// mc0 and mc1 are sdk.AdaptiveWorkflow's only tasks with an fpga variant.
		mix, n := map[string]int{}, 0
		for _, s := range ph.scheds {
			for _, a := range s.Assignments {
				if strings.HasPrefix(a.Task, "mc") {
					mix[a.Variant.String()]++
					n++
				}
			}
		}
		var cells []string
		for _, v := range slices.Sorted(maps.Keys(mix)) {
			cells = append(cells, fmt.Sprintf("%s %d/%d", v, mix[v], n))
		}
		t.Rows = append(t.Rows, []string{ph.name, ph.event, f3(ph.at), strings.Join(cells, ", "), f3(ph.meanSpan)})
		t.metric(ph.name+"_span_s", ph.meanSpan)
		t.metric(flags[i], boolTo01(n > 0 && mix[want[i].String()] == n))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d AdaptiveWorkflows per phase on node00 (Xeon + Alveo U55C), one guest holding device 0's VF; "+
			"VF unplug %.0f ms, replug %.0f ms; events stamped at the latest served makespan",
		adaptPhaseWorkflows, run.unplugS*1000, run.plugS*1000))
	return t, nil
}

// adaptPhaseWorkflows is the number of workflows E7 serves per phase.
const adaptPhaseWorkflows = 4

// adaptPhase is one phase of E7's loop: the hot-plug call that opens it,
// the modelled time the engine stamps on it, the schedules served after
// it, and their mean span (first task start to completion).
type adaptPhase struct {
	name, event  string
	at, meanSpan float64
	scheds       []*runtime.Schedule
}

// adaptRun is one pass of E7's loop.
type adaptRun struct {
	phases         [3]adaptPhase             // steady, unplugged, replugged
	unplugS, plugS float64                   // the VF operations' modelled latencies
	traced         map[runtime.EventKind]int // events the engine traced, by kind
}

// adaptLoop serves E7's three phases on one node, node00 with an Alveo
// U55C: one host with one guest VM holding device 0's VF, an adaptive
// HEFT engine, and sdk.AttachHypervisor stamping each hot-plug event at
// the latest served makespan.
func adaptLoop() (run adaptRun, err error) {
	node := platform.NewNode("node00", platform.XeonModel(), platform.AlveoU55C())
	bs := sdk.ScenarioBitstream()
	if _, err := node.Program(0, -1, bs); err != nil {
		return run, err
	}
	hyp, err := virt.NewHypervisor(node, 1)
	if err != nil {
		return run, err
	}
	if _, err := hyp.DefineVM("guest", 8); err != nil {
		return run, err
	}
	if _, err := hyp.PlugVF("guest", 0); err != nil {
		return run, err
	}
	run.traced = map[runtime.EventKind]int{}
	eng := runtime.NewEngine(platform.NewCluster(node), runtime.EngineConfig{
		Policy: runtime.PolicyHEFT, Adaptive: true,
		Trace: func(ev runtime.Event) { run.traced[ev.Kind]++ },
	})
	last := 0.0 // the latest served makespan: the clock the hot-plug events read
	if err := sdk.AttachHypervisor(eng, hyp, func() float64 { return last }); err != nil {
		return run, err
	}
	if err := eng.Start(); err != nil {
		return run, err
	}
	defer eng.Shutdown()
	wf := 0 // workflow index across phases: it sets task sizes and names
	for i := range run.phases {
		ph := &run.phases[i]
		ph.at = last
		switch i {
		case 0:
			ph.name, ph.event = "steady", "engine start"
		case 1:
			ph.name, ph.event = "unplugged", "UnplugVF"
			run.unplugS, err = hyp.UnplugVF("guest", 0)
		case 2:
			ph.name, ph.event = "replugged", "PlugVF"
			run.plugS, err = hyp.PlugVF("guest", 0)
		}
		if err != nil {
			return run, err
		}
		for ; len(ph.scheds) < adaptPhaseWorkflows; wf++ {
			fut, err := eng.Submit(sdk.AdaptiveWorkflow(wf, bs.ID),
				runtime.SubmitOptions{Name: fmt.Sprintf("guest/wf%d", wf+1), Tenant: "guest"})
			if err != nil {
				return run, err
			}
			sched, err := fut.Wait()
			if err != nil {
				return run, err
			}
			first := sched.Makespan
			for _, a := range sched.Assignments {
				first = min(first, a.Start)
			}
			ph.meanSpan += (sched.Makespan - first) / adaptPhaseWorkflows
			ph.scheds = append(ph.scheds, sched)
			last = max(last, sched.Makespan)
		}
	}
	return run, nil
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
