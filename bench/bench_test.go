package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile is the repository's benchmark declaration, one directory
// up from this package.
const benchmarkFile = "../BENCHMARK.json"

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("%s: %v", benchmarkFile, err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesCode holds BENCHMARK.json and the metric tables
// in step: the same names, in the same order, with the same units.
func TestDeclarationMatchesCode(t *testing.T) {
	d := readDeclared(t)
	if len(d.EndToEnd) != len(endToEnd) || len(d.EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code %d (at most 16)", len(d.EndToEnd), len(endToEnd))
	}
	if len(d.PerLayer) != len(perLayer) || len(d.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code %d (at most 128)", len(d.PerLayer), len(perLayer))
	}
	seen := make(map[string]bool)
	check := func(name, unit, better string, m metric) {
		if name != m.name || unit != m.unit {
			t.Errorf("declared %s [%s], code prints %s [%s]", name, unit, m.name, m.unit)
		}
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if better != "higher" && better != "lower" {
			t.Errorf("%s: better = %q", name, better)
		}
	}
	for i, m := range d.EndToEnd {
		check(m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range d.PerLayer {
		check(m.Name, m.Unit, m.Better, perLayer[i])
	}
	if len(d.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(d.Workloads), len(specs))
	}
	for i, w := range d.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: declared %q (why %q), code %q", i, w.Name, w.Why, specs[i].name)
		}
	}
}

// runTiny runs one workload at test size and returns its result line.
func runTiny(t *testing.T, workload string, seed uint64, trace bool) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := config{workload: workload, seed: seed, seconds: 1e-3, trace: trace, tiny: true,
		traceOut: filepath.Join(t.TempDir(), "trace.json")}
	if code := run(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d\n%s", workload, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d\n%s", workload, res.Correct, res.Attempted, stderr.String())
	}
	if trace {
		raw, err := os.ReadFile(cfg.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				Ph   string  `json:"ph"`
				Dur  float64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil || len(tf.TraceEvents) == 0 {
			t.Fatalf("%s: trace file: %v (%d events)", workload, err, len(tf.TraceEvents))
		}
	}
	return res
}

// TestWorkloadsPrintEveryMetric serves every workload at test size, with
// and without tracing, and checks that each declared metric prints, with
// its unit and a finite value, and that every output check passed.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	d := readDeclared(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, s.name, 1, trace)
			want := make(map[string]string)
			if trace {
				for _, m := range d.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range d.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", s.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				v, ok := res.Metrics[name]
				if !ok || v.Unit != unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: %s printed as %+v (present %v), want unit %s", s.name, trace, name, v, ok, unit)
				}
			}
		}
	}
}

// TestModelDeterminism: the modelled results depend on the seed alone,
// not on how many threads serve them.
func TestModelDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	quiet := func(string, ...any) {}
	modelled := func(workload string, seed uint64, procs int) (uint64, map[string]float64) {
		runtime.GOMAXPROCS(procs)
		ms, errs, err := measure(config{workload: workload, seed: seed, seconds: 1e-3, tiny: true}, quiet)
		if err != nil || len(errs) > 0 {
			t.Fatalf("%s seed %d: %v %v", workload, seed, err, errs)
		}
		vals, _ := ms.values()
		model := make(map[string]float64)
		for name, v := range vals {
			if strings.HasPrefix(name, "model_") {
				model[name] = v
			}
		}
		return ms.nominal.digest(), model
	}
	for _, s := range specs {
		d1, m1 := modelled(s.name, 1, 1)
		d2, m2 := modelled(s.name, 1, 2)
		if d1 != d2 {
			t.Errorf("%s: digest %016x at GOMAXPROCS=1, %016x at 2", s.name, d1, d2)
		}
		for name, v := range m1 {
			if m2[name] != v {
				t.Errorf("%s: %s = %v at GOMAXPROCS=1, %v at 2", s.name, name, v, m2[name])
			}
		}
		if d7, _ := modelled(s.name, 7, 2); d7 == d1 {
			t.Errorf("%s: seeds 1 and 7 model identical results (digest %016x)", s.name, d1)
		}
	}
}

// TestPercentile pins the nearest-rank semantics, +Inf for failed ops,
// and the guard that refuses a percentile with too few samples beyond it.
func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted: 100 .. 1
	}
	if v, ok := pct(xs, 0.5); !ok || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, ok)
	}
	if v, ok := pct(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 (10 samples beyond)", v, ok)
	}
	if _, ok := pct(xs, 0.95); ok {
		t.Error("p95 of 100 samples has 5 beyond it and must be missing")
	}
	if _, ok := pct(nil, 0.5); ok {
		t.Error("a percentile of no samples must be missing")
	}
	failed := make([]float64, 1000)
	for i := range failed {
		failed[i] = float64(i)
		if i >= 985 {
			failed[i] = math.Inf(1) // 1.5% of ops failed
		}
	}
	if v, ok := pct(failed, 0.99); !ok || !math.IsInf(v, 1) {
		t.Errorf("p99 with 1.5%% failed = %v, %v; want +Inf", v, ok)
	}
	if v, ok := pct(failed, 0.98); !ok || v != 979 {
		t.Errorf("p98 with 1.5%% failed = %v, %v; want 979", v, ok)
	}
}
