package everest_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"everest/internal/base2"
	"everest/internal/ekl"
	"everest/internal/experiments"
	"everest/internal/fleet"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/tensor"
	"everest/internal/traffic"
	"everest/internal/wrf"
)

// The BenchmarkE* benches regenerate each reproduction experiment
// (DESIGN.md §4) and report its key metric, so `go test -bench=.` both
// exercises the full system and emits the paper-shaped quantities.

func benchExperiment(b *testing.B, fn func() (experiments.Table, error), metrics ...string) {
	b.Helper()
	var tab experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := tab.KeyMetrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// BenchmarkE1_EKLKernel — Fig. 3 compactness & equivalence.
func BenchmarkE1_EKLKernel(b *testing.B) {
	benchExperiment(b, experiments.E1, "ekl_statements", "max_diff")
}

// BenchmarkE2_LoweringPipeline — Fig. 5 dialect lowering.
func BenchmarkE2_LoweringPipeline(b *testing.B) {
	benchExperiment(b, experiments.E2, "affine_for")
}

// BenchmarkE3_OlympusAblation — §V-C memory architecture ladder.
func BenchmarkE3_OlympusAblation(b *testing.B) {
	benchExperiment(b, experiments.E3, "speedup_+packing")
}

// BenchmarkE4_DataFormats — base2 accuracy/resource trade-off.
func BenchmarkE4_DataFormats(b *testing.B) {
	benchExperiment(b, experiments.E4, "lut_f64", "err_bf16")
}

// BenchmarkE5_Virtualization — §VI-B SR-IOV overhead.
func BenchmarkE5_Virtualization(b *testing.B) {
	benchExperiment(b, experiments.E5, "overhead_vf-passthrough", "overhead_virtio")
}

// BenchmarkE6_ResourceManager — §VI-A resource manager.
func BenchmarkE6_ResourceManager(b *testing.B) {
	benchExperiment(b, experiments.E6, "recovery_inflation")
}

// BenchmarkE7_Autotune — §VI-B/C mARGOt adaptation across a VF unplug
// and replug: the three phase flags and each phase's mean served span.
func BenchmarkE7_Autotune(b *testing.B) {
	benchExperiment(b, experiments.E7, "initial_fpga", "degraded_cpu16", "recovered_fpga",
		"steady_span_s", "unplugged_span_s", "replugged_span_s")
}

// BenchmarkE8_AnomalyAutoML — §VII TPE vs random.
func BenchmarkE8_AnomalyAutoML(b *testing.B) {
	benchExperiment(b, experiments.E8, "tpe_f1", "random_f1")
}

// BenchmarkE9_PTDR — §VIII PTDR CPU vs FPGA.
func BenchmarkE9_PTDR(b *testing.B) {
	benchExperiment(b, experiments.E9, "speedup_100000")
}

// BenchmarkE10_MapMatching — §VIII placement exploration.
func BenchmarkE10_MapMatching(b *testing.B) {
	benchExperiment(b, experiments.E10, "proj_fpga_100000")
}

// BenchmarkE11_WRFEnsemble — §II-A accelerated WRF.
func BenchmarkE11_WRFEnsemble(b *testing.B) {
	benchExperiment(b, experiments.E11, "radiation_fraction", "step_speedup")
}

// BenchmarkE12_EnergyForecast — §II-B KRR backtest.
func BenchmarkE12_EnergyForecast(b *testing.B) {
	benchExperiment(b, experiments.E12, "krr_mae", "physical_mae")
}

// BenchmarkE13_AirQuality — §II-C correction pipeline.
func BenchmarkE13_AirQuality(b *testing.B) {
	benchExperiment(b, experiments.E13, "raw_logerr", "corrected_logerr")
}

// BenchmarkE14_TrafficModels — §II-D traffic suite.
func BenchmarkE14_TrafficModels(b *testing.B) {
	benchExperiment(b, experiments.E14, "match_accuracy", "cnn_mae")
}

// BenchmarkConcurrentWorkflows exercises the concurrent multi-tenant engine:
// each iteration submits 8 mixed workflows to an engine over an 8-node
// cluster before Start, waits for them all, and compares the modelled completion time
// against running the same workflows back-to-back, each served alone on a
// fresh engine. The reported speedup_x8 metric is the acceptance number
// (>= 2x).
func BenchmarkConcurrentWorkflows(b *testing.B) {
	const workflows = 8
	ws := make([]*runtime.Workflow, workflows)
	for i := range ws {
		ws[i] = sdk.SyntheticWorkflow(i)
	}
	serial, err := sdk.New(sdk.DefaultCluster(8)).SerialMakespan(runtime.PolicyHEFT, ws...)
	if err != nil {
		b.Fatal(err)
	}
	var speedups []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sdk.New(sdk.DefaultCluster(8))
		eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT})
		futs := make([]*runtime.Future, workflows)
		for j := range futs {
			// bench/wf<n>: the workflow name breaks ties in the engine.
			opt := runtime.SubmitOptions{Name: fmt.Sprintf("bench/wf%d", j+1), Tenant: "bench"}
			fut, err := eng.Submit(sdk.SyntheticWorkflow(j), opt)
			if err != nil {
				b.Fatal(err)
			}
			futs[j] = fut
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		eng.Shutdown()
		stats := sdk.TallyOf(futs)
		if stats.Failed != 0 {
			b.Fatalf("%d of %d workflows failed", stats.Failed, workflows)
		}
		speedups = append(speedups, serial/stats.Makespan)
	}
	b.ReportMetric(median(speedups), "speedup_x8")
}

// BenchmarkAdaptivePlacement exercises the closed autotuner→engine→virt
// loop: each iteration serves the E-adapt scenario — FPGA-leaning
// workflows hit mid-run by an accelerator unplug and a node slowdown —
// once with static placement and once adaptively, on identical clusters
// and fault scripts. The reported speedup_adaptive metric is the
// acceptance number (>= 1.3x; the committed baseline in BENCH_2.json is
// what CI's bench gate compares against).
func BenchmarkAdaptivePlacement(b *testing.B) {
	sc := sdk.DefaultAdaptiveScenario()
	var speedups, makespans []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static, adaptive, err := sc.AdaptWin(nil)
		if err != nil {
			b.Fatal(err)
		}
		speedups = append(speedups, static.Makespan/adaptive.Makespan)
		makespans = append(makespans, adaptive.Makespan)
	}
	// The scenario is exactly deterministic (sequential serving over
	// modelled-time fault timelines), so every iteration yields the same
	// ratio; the median is reported for uniformity with the genuinely
	// interleaving-variant BenchmarkConcurrentWorkflows.
	b.ReportMetric(median(speedups), "speedup_adaptive")
	b.ReportMetric(median(makespans), "modelled_s")
}

// BenchmarkCompiledVariants exercises the closed compilation→runtime loop
// (E-compile): the windpower KRR kernel is compiled source-to-schedule
// (EKL → MLIR → HLS → Olympus), staged on part of the cluster, and the
// same workflows and mid-run faults are served twice — once on the static
// engine (the hand-declared path: placement from the design-time task
// cost model) and once adaptively with every workflow's tuner seeded from
// the compiler-derived cpu1/cpu16/fpga operating points, transfers priced
// over the TCP/10G cloudFPGA stack in both arms. The scenario is exactly
// deterministic (sequential serving over modelled-time fault timelines),
// so the reported speedup_compiled is identical across GOMAXPROCS and is
// what CI's bench gate pins via BENCH_3.json.
func BenchmarkCompiledVariants(b *testing.B) {
	sc := sdk.DefaultCompiledScenario()
	c, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var speedups, makespans []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		static, adaptive, err := sc.AdaptWin(c)
		if err != nil {
			b.Fatal(err)
		}
		speedups = append(speedups, static.Makespan/adaptive.Makespan)
		makespans = append(makespans, adaptive.Makespan)
	}
	b.ReportMetric(median(speedups), "speedup_compiled")
	b.ReportMetric(median(makespans), "modelled_s")
}

// BenchmarkFleetThroughput exercises the federation tier (E-fleet): the
// same aggregate workload — 64 mixed compiled and hand-declared workflows
// from 32 tenants, one-slot bitstream caches, an accelerator unplug on
// site 0 — is pushed through the open-arrival saturation ladder twice,
// once over 4 federated sites and once over a single site. The reported
// throughput_at_slo metric is the 4-site achieved throughput (workflows
// per modelled second) at the highest offered load whose p95 latency
// still meets the scenario SLO; fleet_speedup is its ratio over the
// single site (acceptance: >= 1.5x). Sequential modelled-time serving
// makes both exactly deterministic across GOMAXPROCS; CI's consolidated
// benchgate pins them via BENCH_4.json.
func BenchmarkFleetThroughput(b *testing.B) {
	sc := sdk.DefaultFleetScenario()
	c, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	gaps := sdk.DefaultSaturationGaps()
	var tputs, speedups []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multi := sc
		_, best4, err := multi.Saturate(c, gaps)
		if err != nil {
			b.Fatal(err)
		}
		single := sc
		single.Sites = 1
		_, best1, err := single.Saturate(c, gaps)
		if err != nil {
			b.Fatal(err)
		}
		if best4.Throughput <= 0 || best1.Throughput <= 0 {
			b.Fatalf("no SLO-meeting rung (4-site %+v, 1-site %+v)", best4, best1)
		}
		tputs = append(tputs, best4.Throughput)
		speedups = append(speedups, best4.Throughput/best1.Throughput)
	}
	b.ReportMetric(median(tputs), "throughput_at_slo")
	b.ReportMetric(median(speedups), "fleet_speedup")
}

// BenchmarkAppSuite exercises the workload registry through the fleet
// tier (E-apps): all three EVEREST use-case applications — weather
// ensembles with compiled RRTMG radiation, traffic map-matching with the
// compiled Fig. 4 projection stage, energy prediction with compiled KRR
// and ONNX inference — interleaved across 24 tenants over 4 federated
// sites, swept through the open-arrival rate ladder. The reported
// suite_throughput_at_slo is the mixed-suite achieved throughput at the
// highest SLO-meeting offered load; p95_energy / p95_traffic /
// p95_weather are the per-application p95 latencies at that operating
// point. Sequential modelled-time serving makes every number exactly
// deterministic across GOMAXPROCS; CI's consolidated benchgate pins them
// via BENCH_5.json.
func BenchmarkAppSuite(b *testing.B) {
	sc := sdk.DefaultSuiteScenario()
	suite, err := sc.BuildSuite()
	if err != nil {
		b.Fatal(err)
	}
	gaps := []float64{0.64, 0.16, 0.08, 0.04, 0.02}
	var tputs []float64
	appP95s := make(map[string][]float64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, best, err := sc.SaturateSuite(suite, gaps)
		if err != nil {
			b.Fatal(err)
		}
		if best.Throughput <= 0 {
			b.Fatalf("no SLO-meeting rung: %+v", points)
		}
		tputs = append(tputs, best.Throughput)
		for name, tl := range best.Apps {
			appP95s[name] = append(appP95s[name], tl.P95)
		}
	}
	b.ReportMetric(median(tputs), "suite_throughput_at_slo")
	for name, p95s := range appP95s {
		b.ReportMetric(median(p95s), "p95_"+name)
	}
}

// BenchmarkGuaranteedServing exercises the proven-bound admission class
// (E-wcet): the E-fleet mix driven toward best-effort saturation with
// every 4th submission requesting a guaranteed 4s deadline, while site 0
// loses an accelerator and suffers a 3x CPU slowdown mid-run. Reported:
// guaranteed_admit_rate (admissions / guaranteed requests — refusals
// degrade to best-effort), bound_violations (admitted completions past
// their proven bound; pinned EXACTLY at zero by BENCH_8.json — the
// admission math is either sound or broken), and bound_tightness (worst
// observed latency/bound ratio — how sharp the proof is; must stay in
// (0, 1]). Modelled-time metrics: exactly deterministic across
// GOMAXPROCS.
func BenchmarkGuaranteedServing(b *testing.B) {
	sc := sdk.DefaultGuaranteedScenario()
	c, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var admit, tight []float64
	violations := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sc.RunWith(c)
		if err != nil {
			b.Fatal(err)
		}
		if res.GuaranteedAdmitted == 0 {
			b.Fatal("no guaranteed admissions: the bench proves nothing")
		}
		admit = append(admit, res.GuaranteedAdmitRate)
		tight = append(tight, res.BoundTightness)
		violations += float64(res.BoundViolations)
	}
	b.ReportMetric(median(admit), "guaranteed_admit_rate")
	b.ReportMetric(median(tight), "bound_tightness")
	// Violations are summed, not medianed: one bad run must not hide.
	b.ReportMetric(violations, "bound_violations")
}

// BenchmarkStreamThroughput exercises the streaming tier (E-stream): the
// million-event sensor feed — four traffic/energy pipelines of 250k
// events each, alternating guaranteed and best-effort tenants — is swept
// through the offered-rate ladder, and the same feed is then served with
// partial reconfiguration on and off at the default rate. The reported
// events_per_sec_at_slo metric is the sustained throughput (events per
// modelled second, all pipelines) at the highest rate rung whose p99
// end-to-end event latency meets the 0.25s SLO with negligible shedding;
// stream_p99_s is that rung's p99; pr_swap_win is the throughput ratio of
// the partial-reconfiguration run over the whole-device-reload run
// (acceptance: a measurable win, >= 1.5x). Single-threaded modelled-time
// serving makes every number exactly deterministic across GOMAXPROCS;
// CI's consolidated benchgate pins them via BENCH_7.json.
func BenchmarkStreamThroughput(b *testing.B) {
	srv, err := sdk.NewStreamServer(sdk.DefaultStreamScenario())
	if err != nil {
		b.Fatal(err)
	}
	rates := sdk.DefaultStreamRates()
	var tputs, p99s, wins []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, best, err := srv.Saturate(rates)
		if err != nil {
			b.Fatal(err)
		}
		if best.Throughput <= 0 {
			b.Fatal("no rate rung met the p99 SLO")
		}
		on, off, err := srv.SwapWin()
		if err != nil {
			b.Fatal(err)
		}
		if off.Swaps <= 0 {
			b.Fatalf("whole-device arm paid no swaps (%+v); the win would be vacuous", off)
		}
		tputs = append(tputs, best.Throughput)
		p99s = append(p99s, best.P99)
		wins = append(wins, on.Throughput/off.Throughput)
	}
	b.ReportMetric(median(tputs), "events_per_sec_at_slo")
	b.ReportMetric(median(p99s), "stream_p99_s")
	b.ReportMetric(median(wins), "pr_swap_win")
}

// BenchmarkRegionServing exercises the hierarchical multi-region tier
// (E-region): a traffic wave rotating across 3 geo-distributed regions
// — each a full federation on its own registry fabric — over the 1 Gb/s
// WAN, with background batch churn evicting wave bitstreams from the
// bounded region stores, proven-bound guaranteed admissions, and
// inter-region handoff priced against local cold serving. Each
// iteration serves the same suite twice, with forecast-driven bitstream
// prefetch on and off. The gated region_prefetch_speedup is the ratio
// of the arms' tail cold-start overhead p99 — the p99 of (latency minus
// engine service time) over steady-state non-batch submissions, i.e.
// the WAN-refetch + deploy + queue overhead prefetch attacks, reported
// independently of the apps' intrinsic compute (acceptance: >= 1.5x);
// region_coldstart_p99_s is the prefetch-on arm's absolute overhead;
// region_bound_violations (summed, exact pin 0) says every admitted
// guarantee held on both arms. Modelled-time serving: every number is
// exactly deterministic across GOMAXPROCS; CI's consolidated benchgate
// pins them via BENCH_9.json.
func BenchmarkRegionServing(b *testing.B) {
	sc := sdk.DefaultRegionScenario()
	s, err := sc.BuildSuite()
	if err != nil {
		b.Fatal(err)
	}
	var speedups, overheads []float64
	violations := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		on, off, err := sc.PrefetchWin(s)
		if err != nil {
			b.Fatal(err)
		}
		for pf, res := range map[bool]sdk.RegionResult{true: on, false: off} {
			if res.Completed != sc.Workflows {
				b.Fatalf("prefetch=%v completed %d/%d", pf, res.Completed, sc.Workflows)
			}
			if res.GuaranteedAdmitted == 0 {
				b.Fatalf("prefetch=%v: no guaranteed admissions — the bench proves nothing", pf)
			}
			violations += float64(res.BoundViolations)
		}
		if on.TailColdStartP99 <= 0 {
			b.Fatal("prefetch-on arm has no tail overhead to compare")
		}
		speedups = append(speedups, off.TailColdStartP99/on.TailColdStartP99)
		overheads = append(overheads, on.TailColdStartP99)
	}
	b.ReportMetric(median(speedups), "region_prefetch_speedup")
	b.ReportMetric(median(overheads), "region_coldstart_p99_s")
	// Violations are summed, not medianed: one bad run must not hide.
	b.ReportMetric(violations, "region_bound_violations")
}

// BenchmarkDatasetLocality exercises the named data plane (E-data): the
// FPGA map-reduce k-means workload — point partitions scattered across a
// 4-site federation on a 1 Gb/s WAN, three rounds of compiled map shards
// folding their partition into per-cluster partials plus a reduce
// combining them — served twice, with placement-aware routing on and
// off. With locality pricing the router moves each map shard to the site
// holding its partition and only the tiny partials cross the fabric;
// blind, the same workload is placed by queue balance alone and the
// partitions themselves get shipped. The gated data_locality_byte_win is
// the ratio of the arms' shipped-bytes-per-workflow (acceptance: >=
// 1.5x); data_shipped_bytes_per_wf is the locality arm's absolute
// staging traffic; data_wf_per_modelled_s its serving throughput.
// Modelled-time serving with submit-and-wait rounds: every number is
// exactly deterministic across GOMAXPROCS; CI's consolidated benchgate
// pins them via BENCH_10.json.
func BenchmarkDatasetLocality(b *testing.B) {
	var wins, shipped, tputs []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := sdk.DefaultKMeansScenario()
		local, blind, err := sc.LocalityWin()
		if err != nil {
			b.Fatal(err)
		}
		for isBlind, res := range map[bool]sdk.KMeansResult{false: local, true: blind} {
			if res.Workflows != sc.Rounds*(sc.Config.Partitions+1) {
				b.Fatalf("blind=%v completed %d workflows", isBlind, res.Workflows)
			}
		}
		if blind.ShippedBytes == 0 {
			b.Fatal("blind arm shipped nothing; the contrast is vacuous")
		}
		if local.DatasetHits == 0 {
			b.Fatal("locality arm never hit its store; the contrast is vacuous")
		}
		if local.BytesPerWorkflow <= 0 {
			b.Fatal("locality arm shipped nothing at all; the ratio is degenerate")
		}
		wins = append(wins, blind.BytesPerWorkflow/local.BytesPerWorkflow)
		shipped = append(shipped, local.BytesPerWorkflow)
		tputs = append(tputs, local.Throughput)
	}
	b.ReportMetric(median(wins), "data_locality_byte_win")
	b.ReportMetric(median(shipped), "data_shipped_bytes_per_wf")
	b.ReportMetric(median(tputs), "data_wf_per_modelled_s")
}

// BenchmarkSimulatorSpeed is the event-core self-bench (E-speed): it drives
// the full E-fleet scenario — 64 workflows from 32 tenants over 4 federated
// sites with an accelerator unplug — and reports how fast the modelled-time
// engine itself runs in *wall-clock* terms. workflows_per_wall_second is
// end-to-end serving speed; ns_per_event is wall nanoseconds per fleet
// trace event (deploys, hits, evictions, routes, completions), a proxy for
// per-event dispatch cost that is insensitive to workflow size. Unlike the
// modelled metrics in BENCH_2–5 these numbers measure the host machine, so
// BENCH_6.json gates them with a widened jitter tolerance (see its comment).
func BenchmarkSimulatorSpeed(b *testing.B) {
	sc := sdk.DefaultFleetScenario()
	c, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	var events atomic.Int64
	sc.Trace = func(fleet.Event) { events.Add(1) }
	var completed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sc.RunWith(c)
		if err != nil {
			b.Fatal(err)
		}
		completed += res.Completed
	}
	b.StopTimer()
	wall := b.Elapsed().Seconds()
	b.ReportMetric(float64(completed)/wall, "workflows_per_wall_second")
	b.ReportMetric(wall*1e9/float64(events.Load()), "ns_per_event")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// Micro-benchmarks of the hot substrate kernels.

func BenchmarkEinsumMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Random(rng, -1, 1, 64, 64)
	y := tensor.Random(rng, -1, 1, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MustEinsum("ij,jk->ik", x, y)
	}
}

func BenchmarkPositEncodeDecode(b *testing.B) {
	p, err := base2.NewPositFormat(16, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := vals[i%len(vals)]
		if p.Decode(p.Encode(v)) == -1 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkEKLInterpreterRRTMG(b *testing.B) {
	k, err := ekl.ParseKernel(wrf.EKLSource())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const nflav, nT, nP, nEta, nx, ng = 3, 12, 16, 9, 16, 8
	intT := func(max int, shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		for i := range t.Data() {
			t.Data()[i] = float64(rng.Intn(max))
		}
		return t
	}
	bind := ekl.Binding{
		Tensors: map[string]*tensor.Tensor{
			"p":           tensor.Random(rng, 5000, 101325, nx),
			"bnd_to_flav": intT(nflav, 2, 4),
			"j_T":         intT(nT-2, nx),
			"j_p":         intT(nP-3, nx),
			"j_eta":       intT(nEta-2, nflav, nx),
			"r_mix":       tensor.Random(rng, 0, 1, nflav, nx, 2),
			"f_major":     tensor.Random(rng, 0, 1, nflav, nx, 2, 2, 2),
			"k_major":     tensor.Random(rng, 0.1, 1, nT, nP, nEta, ng),
		},
		Scalars: map[string]float64{"bnd": 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Run(bind); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkViterbiMatch(b *testing.B) {
	net := traffic.GridNetwork(6, 6, 200, 1)
	trace, err := traffic.SimulateTrip(net, 3, 8, 10, 80)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traffic.MatchTrace(net, trace, 60, 10, 30, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPTDRMonteCarlo(b *testing.B) {
	net := traffic.GridNetwork(6, 6, 200, 1)
	profile := traffic.BuildProfile(net, 7)
	route, _, err := net.ShortestPath(0, 35)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := traffic.MonteCarlo(net, profile, route, 8.5*3600, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWRFStep(b *testing.B) {
	cfg := wrf.Config{NX: 16, NY: 16, NZ: 8, DT: 60, DX: 3000, RadiationEvery: 1}
	s := wrf.NewState(cfg, 1)
	rad := wrf.NewRadiation(1, cfg.NZ)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(rad)
	}
}
