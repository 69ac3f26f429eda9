package main

import "math"

// metric is one reported number. BENCHMARK.json declares the same names
// and units; the tests hold the two in step.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees, printed with tracing
// off. Each host metric takes its best timed pass (serving phases only).
// Model metrics cover the nominal rate's episodes: the p99 counts every
// op that did not complete as +Inf; the mean covers completed ops, whose
// share fail_frac gives. The mean stands where a median would: the
// workloads' latencies cluster at each workflow shape's service time, so
// a median jumps between clusters (or sits on one, reading the same on
// every seed), while the mean moves in proportion to what changed.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"host_ops_per_s", "1/s"},
	{"host_cpu_ns_per_op", "ns"},
	{"host_alloc_b_per_op", "B"},
	{"host_peak_rss_mb", "MB"},
	{"model_mean_s", "s"},
	{"model_p99_s", "s"},
	{"model_ops_per_s", "1/s"},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// layer the workload does not use prints 0, as does a percentile with too
// few samples beyond it (the report names those).
var perLayer = []metric{
	{"model_p50_s", "s"},
	{"variants.compile_s", "s"},
	{"variants.kernels", "count"},
	{"fleet.submit_us.p50", "us"},
	{"fleet.submit_us.p99", "us"},
	{"fleet.wait_s.p99", "s"},
	{"fleet.deploy_s.p99", "s"},
	{"fleet.fetch_s.p99", "s"},
	{"fleet.cache_hit_ratio", "ratio"},
	{"fleet.evictions", "count"},
	{"fleet.redeploys", "count"},
	{"fleet.rejected", "count"},
	{"fleet.guaranteed_admit_ratio", "ratio"},
	{"dataset.hit_ratio", "ratio"},
	{"dataset.fetched_b", "B"},
	{"dataset.published", "count"},
	{"dataset.evictions", "count"},
	{"runtime.wait_us.p50", "us"},
	{"runtime.wait_us.p99", "us"},
	{"runtime.service_s.p50", "s"},
	{"runtime.service_s.p99", "s"},
	{"runtime.fpga_task_frac", "ratio"},
	{"runtime.fallbacks", "count"},
	{"runtime.reschedules", "count"},
	{"runtime.moved_b_per_op", "B"},
	{"region.submit_us.p50", "us"},
	{"region.submit_us.p99", "us"},
	{"region.drain_s", "s"},
	{"region.handoff_s.p95", "s"},
	{"region.fetch_s.p95", "s"},
	{"region.hold_s.p95", "s"},
	{"region.coldstart_s.p95", "s"},
	{"region.cold_ratio", "ratio"},
	{"region.prefetch_fetches", "count"},
	{"region.handoffs", "count"},
	{"region.ledger_gaps", "count"},
	{"stream.ns_per_event", "ns"},
	{"stream.shed_frac", "ratio"},
	{"stream.swaps", "count"},
	{"stream.swap_s", "s"},
	{"stream.events_per_window", "count"},
	{"trace.runtime.events", "count"},
	{"trace.fleet.events", "count"},
	{"trace.region.events", "count"},
	{"trace.stream.events", "count"},
	{"trace_overhead_frac", "ratio"},
	{"model_ops_per_s_at_slo", "1/s"},
	{"fail_frac", "ratio"},
	{"model_shipped_b_per_op", "B"},
	{"guarantee_violations", "count"},
	{"model_rerun_mismatches", "count"},
}

// rung is one ladder step: the workload served at one offered rate.
type rung struct {
	rate       float64
	p99        float64
	ok         bool // p99 measured
	failFrac   float64
	throughput float64 // completed ops per modelled second
	met        bool    // within the SLO
}

// measured is everything one run observed.
type measured struct {
	episodes int
	nominal  *record
	rungs    []rung
	setup    []float64 // seconds per build
	compile  []float64 // seconds compiling per build
	kernels  int
	plain    []*meter // untraced timed passes
	traced   []*meter // traced timed passes
	tr       *tracer
	// mismatches counts timed reruns of an episode whose modelled results
	// differed from the modelled pass's.
	mismatches int
}

// values computes every metric the run can give. A name in missing had
// too few samples, or belongs to a layer the workload does not use.
func (ms *measured) values() (vals map[string]float64, missing map[string]bool) {
	vals = make(map[string]float64)
	missing = make(map[string]bool)
	put := func(name string, v float64, ok bool) {
		if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			vals[name] = v
		} else {
			missing[name] = true
		}
	}
	putPct := func(name string, xs []float64, q, scale float64) {
		v, ok := pct(xs, q)
		put(name, v*scale, ok)
	}
	rec := ms.nominal
	c := rec.counts

	put("setup_s", median(ms.setup), len(ms.setup) > 0)
	put("host_ops_per_s", fastest(ms.plain, opsPerSecond, true), len(ms.plain) > 0)
	put("host_cpu_ns_per_op", fastest(ms.plain, func(m *meter) float64 {
		return float64(m.cpu.Nanoseconds()) / float64(m.ops)
	}, false), len(ms.plain) > 0)
	put("host_alloc_b_per_op", fastest(ms.plain, func(m *meter) float64 {
		return float64(m.alloc) / float64(m.ops)
	}, false), len(ms.plain) > 0)
	put("host_peak_rss_mb", peakRSSMB(), true)
	putPct("model_p50_s", rec.lat, 0.50, 1)
	putPct("model_p99_s", rec.lat, 0.99, 1)
	sum, n := 0.0, 0
	for _, x := range rec.lat {
		if !math.IsInf(x, 1) {
			sum, n = sum+x, n+1
		}
	}
	put("model_mean_s", sum/float64(n), n > 0)
	put("model_ops_per_s", rec.throughput(), rec.completed > 0)

	put("variants.compile_s", median(ms.compile), len(ms.compile) > 0)
	put("variants.kernels", float64(ms.kernels), true)
	putPct("fleet.wait_s.p99", rec.samples["fleet.wait_s"], 0.99, 1)
	putPct("fleet.deploy_s.p99", rec.samples["fleet.deploy_s"], 0.99, 1)
	putPct("fleet.fetch_s.p99", rec.samples["fleet.fetch_s"], 0.99, 1)
	put("fleet.cache_hit_ratio", ratio(c["fleet.cache_hits"], c["fleet.cache_hits"]+c["fleet.cache_misses"]), true)
	put("fleet.evictions", c["fleet.evictions"], true)
	put("fleet.redeploys", c["fleet.redeploys"], true)
	put("fleet.rejected", float64(rec.rejected), true)
	put("fleet.guaranteed_admit_ratio",
		ratio(c["guaranteed.admitted"], c["guaranteed.admitted"]+c["guaranteed.refused"]), true)
	put("dataset.hit_ratio", ratio(c["dataset.hits"], c["dataset.hits"]+c["dataset.misses"]), true)
	put("dataset.fetched_b", c["dataset.fetched_b"], true)
	put("dataset.published", c["dataset.published"], true)
	put("dataset.evictions", c["dataset.evictions"], true)
	putPct("runtime.service_s.p50", rec.samples["runtime.service_s"], 0.50, 1)
	putPct("runtime.service_s.p99", rec.samples["runtime.service_s"], 0.99, 1)
	put("runtime.fpga_task_frac", ratio(c["runtime.fpga_tasks"], c["runtime.tasks"]), true)
	put("runtime.fallbacks", c["runtime.fallbacks"], true)
	put("runtime.reschedules", c["runtime.reschedules"], true)
	put("runtime.moved_b_per_op", ratio(c["runtime.moved_b"], float64(rec.completed)), true)
	putPct("region.handoff_s.p95", rec.samples["region.handoff_s"], 0.95, 1)
	putPct("region.fetch_s.p95", rec.samples["region.fetch_s"], 0.95, 1)
	putPct("region.hold_s.p95", rec.samples["region.hold_s"], 0.95, 1)
	putPct("region.coldstart_s.p95", rec.samples["region.coldstart_s"], 0.95, 1)
	put("region.cold_ratio", ratio(c["region.cold"], c["region.completed"]), true)
	put("region.prefetch_fetches", c["region.prefetch_fetches"], true)
	put("region.handoffs", c["region.handoffs"], true)
	put("region.ledger_gaps", c["region.ledger_gaps"], true)
	put("stream.shed_frac", ratio(c["stream.shed"], c["stream.events"]), true)
	put("stream.swaps", c["stream.swaps"], true)
	put("stream.swap_s", c["stream.swap_s"], true)
	put("stream.events_per_window", ratio(c["stream.events"]-c["stream.shed"], c["stream.windows"]), true)
	put("fail_frac", rec.failFrac(), rec.attempted > 0)
	put("model_shipped_b_per_op", ratio(c["dataset.op_fetched_b"], float64(rec.completed)), true)
	put("guarantee_violations", float64(rec.violations), true)
	put("model_rerun_mismatches", float64(ms.mismatches), true)
	best, anyMet := 0.0, false
	for _, r := range ms.rungs {
		if r.met {
			best, anyMet = math.Max(best, r.throughput), true
		}
	}
	put("model_ops_per_s_at_slo", best, anyMet)

	// Host per-layer numbers come from the traced passes.
	if tr := ms.tr; tr != nil {
		putPct("fleet.submit_us.p50", tr.durs["fleet.submit"], 0.50, 1e6)
		putPct("fleet.submit_us.p99", tr.durs["fleet.submit"], 0.99, 1e6)
		putPct("runtime.wait_us.p50", tr.durs["runtime.wait"], 0.50, 1e6)
		putPct("runtime.wait_us.p99", tr.durs["runtime.wait"], 0.99, 1e6)
		putPct("region.submit_us.p50", tr.durs["region.submit"], 0.50, 1e6)
		putPct("region.submit_us.p99", tr.durs["region.submit"], 0.99, 1e6)
		put("region.drain_s", median(tr.durs["region.drain"]), len(tr.durs["region.drain"]) > 0)
		perRun := float64(c["stream.events"]) / float64(ms.episodes)
		put("stream.ns_per_event", median(tr.durs["stream.run"])*1e9/perRun, len(tr.durs["stream.run"]) > 0)
		for layer, name := range hookNames {
			put("trace."+name+".events", float64(tr.hooks[layer].Load())/float64(len(ms.traced)), len(ms.traced) > 0)
		}
		put("trace_overhead_frac", 1-fastest(ms.traced, opsPerSecond, true)/fastest(ms.plain, opsPerSecond, true),
			len(ms.traced) > 0 && len(ms.plain) > 0)
	}
	return vals, missing
}

func opsPerSecond(m *meter) float64 { return float64(m.ops) / m.wall.Seconds() }

// fastest is f's best value over the timed passes: the highest when
// higher is better, the lowest when lower is. Other tenants of a shared host only
// ever slow a pass, in phases lasting seconds, so the fastest pass
// estimates the code's own speed, while a median moves with how much of
// the run a noisy neighbour overlapped. Over ten seeds on a shared 2-CPU
// container, the quartile spread of host_ops_per_s by median pass was
// 6-15% across the workloads, by fastest pass 5-9%.
func fastest(ms []*meter, f func(*meter) float64, higherBetter bool) float64 {
	best := f(ms[0])
	for _, m := range ms[1:] {
		if v := f(m); higherBetter && v > best || !higherBetter && v < best {
			best = v
		}
	}
	return best
}
