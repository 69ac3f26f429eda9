// Command bench is the repository's end-to-end and per-layer benchmark.
// It serves one of four seeded workloads through the SDK's public
// serving fronts and prints every metric by name with its unit, checking
// the modelled outputs as it goes:
//
//	go run . --workload fleet-churn --seed 1 --seconds 10 --trace 0
//
// A run builds the workload several times (setup_s), serves its episodes
// once untimed for the modelled metrics and the SLO ladder, then serves
// them again and again for --seconds of host time, counting the reruns
// that do not reproduce the modelled results bit for bit. With --trace 1
// every other timed pass is traced: calls into each layer are timed, the
// layers' trace hooks are counted, and spans are written as Chrome
// trace-event JSON. The last line of standard output is one JSON object
// with the verdict and the metrics; the report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupBuilds is how many times a run builds the workload; setup_s is
// the median.
const setupBuilds = 7

// maxFailFrac is the largest share of failed ops a ladder rung may have
// and still meet the SLO.
const maxFailFrac = 0.01

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	// tiny serves test-sized inputs: one build, one episode.
	tiny bool
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// One load-generator goroutine submits each op and waits for it, so serving is
	// serial; with a second P every submit-and-wait hops OS threads and the
	// host metrics inherit the OS scheduler's noise (on a shared 2-CPU
	// container, repeated runs of one seed spread their median throughput
	// by about ±9% at GOMAXPROCS=2 and ±1-3% at 1). An explicit GOMAXPROCS
	// in the environment still wins.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to serve (fleet-churn, region-wave, stream-feed, kmeans-data)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "host seconds of timed serving")
	fs.IntVar(&trace, "trace", 0, "1 runs traced and prints the per-layer metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace-event file of a traced run (default .bench_build/trace/<workload>-seed<n>.json)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := specByName(cfg.workload); !ok {
		return config{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run serves one workload and returns the exit code: 0 when every check
// passed, 1 when a check failed (the result line says so), 2 when the
// workload could not be served at all (no result line).
func run(cfg config, stdout, stderr io.Writer) int {
	report := func(format string, args ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", args...) }
	ms, errs, err := measure(cfg, report)
	if err != nil {
		report("%s: %v", cfg.workload, err)
		return 2
	}
	vals, missing := ms.values()

	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	res := result{Attempted: ms.nominal.attempted,
		Failed:  ms.nominal.rejected + ms.nominal.failed + ms.nominal.shed,
		Metrics: make(map[string]metricValue, len(table))}
	for _, m := range table {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	for _, m := range endToEnd {
		if missing[m.name] && !cfg.tiny {
			errs = append(errs, fmt.Sprintf("end-to-end metric %s could not be measured", m.name))
		}
	}
	for _, tables := range [][]metric{endToEnd, perLayer} {
		for _, m := range tables {
			if missing[m.name] {
				report("%-30s missing", m.name)
			} else {
				report("%-30s %.6g %s", m.name, vals[m.name], m.unit)
			}
		}
	}
	for _, e := range errs {
		report("CHECK FAILED: %s", e)
	}
	res.Correct = len(errs) == 0
	if cfg.trace {
		if err := ms.tr.writeChrome(cfg.traceOut); err != nil {
			report("%v", err)
			return 2
		}
		report("trace spans written to %s", cfg.traceOut)
	}
	line, err := json.Marshal(res)
	if err != nil {
		report("%v", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the set-up builds, the untimed modelled pass with its
// ladder, and the timed passes. errs lists the output checks that
// failed; err means the workload could not be served.
func measure(cfg config, report func(string, ...any)) (ms *measured, errs []string, err error) {
	s, _ := specByName(cfg.workload)
	w := s.make(cfg.seed, cfg.tiny)
	ms = &measured{episodes: s.episodes}
	builds := setupBuilds
	if cfg.tiny {
		ms.episodes, builds = 1, 1
	}
	if cfg.trace {
		ms.tr = newTracer()
	}

	build := func() error {
		ms.tr.begin("setup", -1)
		t0 := time.Now()
		compile, kernels, err := w.build(ms.tr)
		ms.setup = append(ms.setup, time.Since(t0).Seconds())
		ms.tr.end()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ms.compile = append(ms.compile, compile.Seconds())
		ms.kernels = kernels
		return nil
	}
	if err := build(); err != nil {
		return nil, nil, err
	}

	serve := func(rate float64) (*record, error) {
		rec := newRecord()
		for k := 0; k < ms.episodes; k++ {
			runtime.GC() // as before a timed episode, so the heap peaks alike
			if err := w.episode(k, rate, rec, nil, nil); err != nil {
				return nil, err
			}
		}
		return rec, nil
	}
	if ms.nominal, err = serve(s.nominal); err != nil {
		return nil, nil, err
	}
	errs = append(errs, ms.nominal.errs...)
	if ms.nominal.violations != 0 {
		errs = append(errs, fmt.Sprintf("%d admitted guarantees missed their proven bound", ms.nominal.violations))
	}
	report("%s seed %d: %d ops over %d episode(s) at %g/s, model digest %016x",
		s.name, cfg.seed, ms.nominal.attempted, ms.episodes, s.nominal, ms.nominal.digest())

	for _, rate := range s.ladder {
		rec := ms.nominal
		if rate != s.nominal {
			if rec, err = serve(rate); err != nil {
				return nil, nil, fmt.Errorf("ladder rung %g: %w", rate, err)
			}
			errs = append(errs, rec.errs...)
		}
		r := rung{rate: rate, failFrac: rec.failFrac(), throughput: rec.throughput()}
		r.p99, r.ok = pct(rec.lat, 0.99)
		r.met = r.ok && r.p99 <= s.slo && r.failFrac <= maxFailFrac
		ms.rungs = append(ms.rungs, r)
		report("ladder %6g/s: p99 %s, fail_frac %.4f, %.6g ops/s modelled, SLO (p99 <= %g s) met: %v",
			rate, fmtP99(r), r.failFrac, r.throughput, s.slo, r.met)
	}

	// Timed passes, each over every episode once (episodes differ in cost,
	// so only whole passes compare): at least one (and, traced, one traced
	// and one untraced), then on until --seconds have passed. The other
	// set-up builds are spread over the same time, so that one noisy phase
	// of a shared host does not skew all of them; each rebuild replaces the
	// artifacts the following passes serve.
	minPasses := 1
	if cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start).Seconds() < cfg.seconds; pass++ {
		var tr *tracer
		if cfg.trace && pass%2 == 1 {
			tr = ms.tr
		}
		total := &meter{}
		for k := 0; k < ms.episodes; k++ {
			m := &meter{}
			rec := newRecord()
			if err := w.episode(k, s.nominal, rec, tr, m); err != nil {
				return nil, nil, fmt.Errorf("timed pass %d, episode %d: %w", pass, k, err)
			}
			if rec.digests[0] != ms.nominal.digests[k] {
				ms.mismatches++
				report("pass %d reran episode %d with different modelled results", pass, k)
			}
			total.add(m)
		}
		if tr != nil {
			ms.traced = append(ms.traced, total)
		} else {
			ms.plain = append(ms.plain, total)
		}
		for len(ms.setup) < builds && time.Since(start).Seconds() >= cfg.seconds*float64(len(ms.setup))/float64(builds) {
			if err := build(); err != nil {
				return nil, nil, err
			}
		}
	}
	for len(ms.setup) < builds {
		if err := build(); err != nil {
			return nil, nil, err
		}
	}
	rates := make([]float64, len(ms.plain))
	for i, m := range ms.plain {
		rates[i] = opsPerSecond(m)
	}
	mid := median(rates)
	report("timed %d pass(es), %d traced, in %.3g s; untraced ops/s min %.6g median %.6g max %.6g",
		len(ms.plain)+len(ms.traced), len(ms.traced), time.Since(start).Seconds(),
		rates[0], mid, rates[len(rates)-1])
	return ms, errs, nil
}

func fmtP99(r rung) string {
	switch {
	case !r.ok:
		return "unmeasured"
	case math.IsInf(r.p99, 1):
		return "inf"
	}
	return fmt.Sprintf("%.4g s", r.p99)
}
