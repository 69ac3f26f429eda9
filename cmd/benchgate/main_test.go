package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: everest
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkConcurrentWorkflows 	      10	    291766 ns/op	         2.350 speedup_x8
BenchmarkAdaptivePlacement-8   	      10	    723624 ns/op	         0.5860 modelled_s	        13.49 speedup_adaptive
BenchmarkEinsumMatMul64-8      	    5000	    240000 ns/op
PASS
ok  	everest	0.015s
`

func sampleBaseline(concurrent, adaptive float64) Baseline {
	return Baseline{
		Tolerance: 0.25,
		Benchmarks: map[string]Reference{
			"BenchmarkConcurrentWorkflows": {Metric: "speedup_x8", HigherIsBetter: true, Value: concurrent},
			"BenchmarkAdaptivePlacement":   {Metric: "speedup_adaptive", HigherIsBetter: true, Value: adaptive},
		},
	}
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if v := got["BenchmarkConcurrentWorkflows"]["speedup_x8"]; v != 2.35 {
		t.Errorf("speedup_x8 = %g, want 2.35", v)
	}
	if v := got["BenchmarkAdaptivePlacement"]["speedup_adaptive"]; v != 13.49 {
		t.Errorf("speedup_adaptive = %g, want 13.49 (suffix must strip)", v)
	}
	if v := got["BenchmarkAdaptivePlacement"]["modelled_s"]; v != 0.586 {
		t.Errorf("modelled_s = %g, want 0.586", v)
	}
	if v := got["BenchmarkEinsumMatMul64"]["ns/op"]; v != 240000 {
		t.Errorf("ns/op = %g, want 240000", v)
	}
}

func TestCheckPassAndFail(t *testing.T) {
	observed, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	// Within tolerance: observed 2.35 vs baseline 2.5 is a 6% dip.
	if lines, ok := check(sampleBaseline(2.5, 13.0), observed); !ok {
		t.Errorf("small dip must pass:\n%s", strings.Join(lines, "\n"))
	}
	// Beyond tolerance: observed 2.35 vs baseline 4.0 is a 41% dip.
	lines, ok := check(sampleBaseline(4.0, 13.0), observed)
	if ok {
		t.Error("41%% regression must fail")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "FAIL BenchmarkConcurrentWorkflows") {
		t.Errorf("verdicts missing failure:\n%s", joined)
	}
	// A gated benchmark absent from the output must fail.
	base := sampleBaseline(2.0, 13.0)
	base.Benchmarks["BenchmarkGhost"] = Reference{Metric: "speedup", HigherIsBetter: true, Value: 1}
	if _, ok := check(base, observed); ok {
		t.Error("missing benchmark must fail")
	}
	// Lower-is-better direction.
	base = Baseline{Benchmarks: map[string]Reference{
		"BenchmarkAdaptivePlacement": {Metric: "modelled_s", HigherIsBetter: false, Value: 0.3},
	}}
	if _, ok := check(base, observed); ok {
		t.Error("0.586s vs 0.3s baseline (lower-is-better) must fail")
	}
}

// wallBench mimics the E-speed self-bench output at a given jitter factor:
// the machine running slow by `slow` multiplies ns_per_event (lower is
// better) and divides workflows_per_wall_second (higher is better).
func wallBench(slow float64) string {
	return "BenchmarkSimulatorSpeed \t 500\t " +
		strconvF(520000*slow) + " ns/op\t " +
		strconvF(2850*slow) + " ns_per_event\t " +
		strconvF(118000/slow) + " workflows_per_wall_second\n"
}

func strconvF(v float64) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

func wallBaseline(tol float64) Baseline {
	return Baseline{
		Tolerance: tol,
		Comment:   "wall-clock metrics; tolerance widened for runner jitter",
		Benchmarks: map[string]Reference{
			"BenchmarkSimulatorSpeed": {
				Metric: "workflows_per_wall_second", HigherIsBetter: true, Value: 118000,
			},
			"BenchmarkSimulatorSpeed@ns_per_event": {
				Metric: "ns_per_event", HigherIsBetter: false, Value: 2850,
			},
		},
	}
}

// TestWallClockJitter pins the gate's behaviour on wall-clock metrics: a
// machine-jitter slowdown inside the widened tolerance passes in BOTH
// directions (higher_is_better=true and =false), while a real regression —
// here the ~3.3x gap back to the pre-heap engine — fails both keys no
// matter how noisy the runner.
func TestWallClockJitter(t *testing.T) {
	for _, tc := range []struct {
		name string
		slow float64 // machine slowdown factor applied to the sample output
		tol  float64
		ok   bool
	}{
		{"exact baseline", 1.0, 0.40, true},
		{"15pct jitter slow", 1.15, 0.40, true},
		{"15pct jitter fast", 0.87, 0.40, true},
		{"at tolerance edge lower-is-better", 1.39, 0.40, true},
		{"beyond tolerance", 1.45, 0.40, false},
		{"engine regression 3.3x", 3.3, 0.40, false},
		{"same jitter, unwidened tolerance", 1.30, 0.25, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			observed, err := parseBench(strings.NewReader(wallBench(tc.slow)))
			if err != nil {
				t.Fatal(err)
			}
			lines, ok := check(wallBaseline(tc.tol), observed)
			if ok != tc.ok {
				t.Errorf("slow=%.2f tol=%.2f: ok=%v, want %v\n%s",
					tc.slow, tc.tol, ok, tc.ok, strings.Join(lines, "\n"))
			}
		})
	}
	// A genuine regression must flag BOTH directions, not just one.
	observed, err := parseBench(strings.NewReader(wallBench(3.3)))
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := check(wallBaseline(0.40), observed)
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "FAIL BenchmarkSimulatorSpeed ") &&
		!strings.Contains(joined, "FAIL BenchmarkSimulatorSpeed:") {
		t.Errorf("workflows_per_wall_second regression not flagged:\n%s", joined)
	}
	if !strings.Contains(joined, "FAIL BenchmarkSimulatorSpeed@ns_per_event") {
		t.Errorf("ns_per_event regression not flagged:\n%s", joined)
	}
}

// TestCommentRoundTrip: -update must rewrite values while preserving the
// human-facing comment that documents the widened tolerance.
func TestCommentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "BENCH.json")
	inputPath := filepath.Join(dir, "bench.out")
	raw, err := json.Marshal(wallBaseline(0.40))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baselinePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inputPath, []byte(wallBench(1.1)), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	if err := run("", baselinePath, inputPath, true, &sink); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var updated Baseline
	if err := json.Unmarshal(raw, &updated); err != nil {
		t.Fatal(err)
	}
	if updated.Comment != wallBaseline(0.40).Comment {
		t.Errorf("comment lost across -update: %q", updated.Comment)
	}
	if v := updated.Benchmarks["BenchmarkSimulatorSpeed@ns_per_event"].Value; v == 2850 {
		t.Error("-update left the stale ns_per_event value in place")
	}
}

func TestRunAndUpdate(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "BENCH.json")
	inputPath := filepath.Join(dir, "bench.out")
	raw, err := json.Marshal(sampleBaseline(99, 99))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baselinePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inputPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink strings.Builder
	if err := run("", baselinePath, inputPath, false, &sink); err == nil {
		t.Error("check against inflated baseline must fail")
	}
	// Update rewrites the values; the same check then passes.
	if err := run("", baselinePath, inputPath, true, &sink); err != nil {
		t.Fatal(err)
	}
	if err := run("", baselinePath, inputPath, false, &sink); err != nil {
		t.Errorf("check after update must pass: %v", err)
	}
	var updated Baseline
	raw, err = os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &updated); err != nil {
		t.Fatal(err)
	}
	if v := updated.Benchmarks["BenchmarkAdaptivePlacement"].Value; v != 13.49 {
		t.Errorf("updated value = %g, want 13.49", v)
	}
}

func TestDirGatesEveryBaseline(t *testing.T) {
	dir := t.TempDir()
	inputPath := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(inputPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, base Baseline) {
		raw, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCH_1.json", Baseline{Benchmarks: map[string]Reference{
		"BenchmarkConcurrentWorkflows": {Metric: "speedup_x8", HigherIsBetter: true, Value: 2.3},
	}})
	// An @alias key gates a second metric of the same benchmark.
	write("BENCH_2.json", Baseline{Benchmarks: map[string]Reference{
		"BenchmarkAdaptivePlacement":            {Metric: "speedup_adaptive", HigherIsBetter: true, Value: 13.0},
		"BenchmarkAdaptivePlacement@modelled_s": {Metric: "modelled_s", HigherIsBetter: false, Value: 0.6},
	}})
	var sink strings.Builder
	if err := run(dir, "", inputPath, false, &sink); err != nil {
		t.Fatalf("all-green dir gate failed: %v\n%s", err, sink.String())
	}
	if out := sink.String(); !strings.Contains(out, "BENCH_1.json") || !strings.Contains(out, "BENCH_2.json") {
		t.Fatalf("verdicts should name their baseline files:\n%s", out)
	}

	// A regression in ANY file fails the consolidated gate.
	write("BENCH_3.json", Baseline{Benchmarks: map[string]Reference{
		"BenchmarkConcurrentWorkflows": {Metric: "speedup_x8", HigherIsBetter: true, Value: 99},
	}})
	if err := run(dir, "", inputPath, false, &sink); err == nil {
		t.Fatal("regression in one file must fail the dir gate")
	}

	// -update with -dir rewrites every file.
	if err := run(dir, "", inputPath, true, &sink); err != nil {
		t.Fatal(err)
	}
	if err := run(dir, "", inputPath, false, &sink); err != nil {
		t.Fatalf("check after dir update must pass: %v", err)
	}

	// An empty directory is an explicit error, not a silent pass.
	if err := run(t.TempDir(), "", inputPath, false, &sink); err == nil {
		t.Fatal("dir without BENCH_*.json must error")
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(bad); err == nil {
		t.Fatal("malformed baseline accepted")
	}
	empty := filepath.Join(dir, "BENCH_empty.json")
	if err := os.WriteFile(empty, []byte(`{"tolerance":0.25,"benchmarks":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(empty); err == nil {
		t.Fatal("baseline gating nothing accepted")
	}
	if _, err := loadBaseline(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing baseline accepted")
	}
	if name := benchName("BenchmarkX@alias"); name != "BenchmarkX" {
		t.Fatalf("benchName = %q, want BenchmarkX", name)
	}
	if name := benchName("@weird"); name != "@weird" {
		t.Fatalf("leading @ must not strip, got %q", name)
	}
}

func TestDirUpdateIsAtomic(t *testing.T) {
	dir := t.TempDir()
	inputPath := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(inputPath, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	good := Baseline{Benchmarks: map[string]Reference{
		"BenchmarkConcurrentWorkflows": {Metric: "speedup_x8", HigherIsBetter: true, Value: 1},
	}}
	ghost := Baseline{Benchmarks: map[string]Reference{
		"BenchmarkGhost": {Metric: "speedup", HigherIsBetter: true, Value: 1},
	}}
	for name, base := range map[string]Baseline{"BENCH_1.json": good, "BENCH_2.json": ghost} {
		raw, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var sink strings.Builder
	if err := run(dir, "", inputPath, true, &sink); err == nil {
		t.Fatal("update with an unresolvable baseline must fail")
	}
	// The resolvable file must be untouched: no partial refresh.
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var after Baseline
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if v := after.Benchmarks["BenchmarkConcurrentWorkflows"].Value; v != 1 {
		t.Fatalf("BENCH_1.json was rewritten (value %g) despite the failed refresh", v)
	}
}

// exactBench renders a guaranteed-serving result line with the given
// violation count (the correctness counter BENCH_8 pins at zero).
func exactBench(violations float64) string {
	return "BenchmarkGuaranteedServing \t 10\t 98765 ns/op\t " +
		strconvF(0.8125) + " guaranteed_admit_rate\t " +
		strconvF(violations) + " bound_violations\n"
}

func exactBaseline() Baseline {
	return Baseline{
		Tolerance: 0.25,
		Benchmarks: map[string]Reference{
			"BenchmarkGuaranteedServing": {
				Metric: "guaranteed_admit_rate", HigherIsBetter: true, Value: 0.8125,
			},
			"BenchmarkGuaranteedServing@bound_violations": {
				Metric: "bound_violations", HigherIsBetter: false, Value: 0, Exact: true,
			},
		},
	}
}

// TestExactReferenceGatesAtEquality: an exact reference ignores the
// tolerance entirely — one bound violation against a pinned zero fails
// even though 1 vs 0 is within any relative tolerance semantics, while the
// non-exact metric of the same baseline still tolerates drift.
func TestExactReferenceGatesAtEquality(t *testing.T) {
	observed, err := parseBench(strings.NewReader(exactBench(0)))
	if err != nil {
		t.Fatal(err)
	}
	if lines, ok := check(exactBaseline(), observed); !ok {
		t.Errorf("zero violations must pass the exact gate:\n%s", strings.Join(lines, "\n"))
	}
	observed, err = parseBench(strings.NewReader(exactBench(1)))
	if err != nil {
		t.Fatal(err)
	}
	lines, ok := check(exactBaseline(), observed)
	if ok {
		t.Error("one violation against an exact zero pin must fail")
	}
	if !strings.Contains(strings.Join(lines, "\n"), "FAIL BenchmarkGuaranteedServing@bound_violations") {
		t.Errorf("exact failure not attributed to the violation key:\n%s", strings.Join(lines, "\n"))
	}
}

// TestUpdateRefusesToMoveExactPin: -update must rewrite the drifting
// non-exact value but refuse — atomically, leaving the file untouched —
// when the run deviates from an exact pin: re-baselining a correctness
// counter is never a refresh.
func TestUpdateRefusesToMoveExactPin(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "BENCH.json")
	inputPath := filepath.Join(dir, "bench.out")
	write := func(content []byte) {
		if err := os.WriteFile(inputPath, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := exactBaseline()
	base.Benchmarks["BenchmarkGuaranteedServing"] = Reference{
		Metric: "guaranteed_admit_rate", HigherIsBetter: true, Value: 0.5, // stale
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baselinePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Clean run: the stale admit rate refreshes, the exact pin survives
	// verbatim (still exact, still zero).
	write([]byte(exactBench(0)))
	var sink strings.Builder
	if err := run("", baselinePath, inputPath, true, &sink); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var updated Baseline
	if err := json.Unmarshal(raw, &updated); err != nil {
		t.Fatal(err)
	}
	if v := updated.Benchmarks["BenchmarkGuaranteedServing"].Value; v != 0.8125 {
		t.Errorf("non-exact value not refreshed: %g", v)
	}
	pin := updated.Benchmarks["BenchmarkGuaranteedServing@bound_violations"]
	if !pin.Exact || pin.Value != 0 {
		t.Errorf("exact pin mutated across -update: %+v", pin)
	}

	// Violating run: the refresh must fail and leave the file as-is.
	write([]byte(exactBench(2)))
	if err := run("", baselinePath, inputPath, true, &sink); err == nil {
		t.Fatal("-update against a violated exact pin must fail")
	}
	raw2, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw2) != string(raw) {
		t.Error("baseline rewritten despite the failed exact refresh")
	}
}

// allocBench renders a per-layer result line with the given allocations
// per op, the count BENCH_12 holds under a ceiling.
func allocBench(allocs float64) string {
	return "BenchmarkEngineSubmit-8 \t 20000\t 4321 ns/op\t 936 B/op\t " + strconvF(allocs) + " allocs/op\n"
}

func ceilingBaseline(allocs float64) Baseline {
	return Baseline{Benchmarks: map[string]Reference{
		"BenchmarkEngineSubmit": {Metric: "allocs/op", Value: allocs, Ceiling: true},
	}}
}

// TestCeilingGatesIncreases: a ceiling ignores the tolerance — one
// allocation above it fails, though 6 vs 5 would pass a 25% tolerance —
// and any reading at or below it passes.
func TestCeilingGatesIncreases(t *testing.T) {
	for _, tc := range []struct {
		allocs float64
		pass   bool
	}{{5, true}, {4, true}, {0, true}, {6, false}, {5.5, false}} {
		observed, err := parseBench(strings.NewReader(allocBench(tc.allocs)))
		if err != nil {
			t.Fatal(err)
		}
		lines, ok := check(ceilingBaseline(5), observed)
		if ok != tc.pass {
			t.Errorf("%g allocs/op against a ceiling of 5: pass %v, want %v\n%s",
				tc.allocs, ok, tc.pass, strings.Join(lines, "\n"))
		}
	}
}

// TestUpdateOnlyLowersCeiling: -update ratchets a ceiling down to a lower
// reading and keeps it a ceiling, but refuses, leaving the file as it
// was, a reading above it.
func TestUpdateOnlyLowersCeiling(t *testing.T) {
	dir := t.TempDir()
	baselinePath := filepath.Join(dir, "BENCH.json")
	inputPath := filepath.Join(dir, "bench.out")
	raw, err := json.Marshal(ceilingBaseline(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baselinePath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	refresh := func(allocs float64) error {
		if err := os.WriteFile(inputPath, []byte(allocBench(allocs)), 0o644); err != nil {
			t.Fatal(err)
		}
		var sink strings.Builder
		return run("", baselinePath, inputPath, true, &sink)
	}
	read := func() []byte {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	if err := refresh(4); err != nil {
		t.Fatal(err)
	}
	lowered := read()
	var updated Baseline
	if err := json.Unmarshal(lowered, &updated); err != nil {
		t.Fatal(err)
	}
	if ref := updated.Benchmarks["BenchmarkEngineSubmit"]; ref.Value != 4 || !ref.Ceiling {
		t.Fatalf("ceiling after a refresh at 4: %+v, want a ceiling of 4", ref)
	}
	if err := refresh(5); err == nil {
		t.Fatal("-update above the ceiling must fail")
	}
	if string(read()) != string(lowered) {
		t.Error("baseline rewritten despite the refused raise")
	}
}

// TestLoadBaselineRefusesContradictoryCeiling: a ceiling bounds from above
// only, so one that is also exact or higher-is-better is refused.
func TestLoadBaselineRefusesContradictoryCeiling(t *testing.T) {
	dir := t.TempDir()
	for name, ref := range map[string]Reference{
		"exact":  {Metric: "allocs/op", Value: 5, Ceiling: true, Exact: true},
		"higher": {Metric: "allocs/op", Value: 5, Ceiling: true, HigherIsBetter: true},
	} {
		raw, err := json.Marshal(Baseline{Benchmarks: map[string]Reference{"BenchmarkX": ref}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadBaseline(path); err == nil {
			t.Errorf("%s ceiling accepted", name)
		}
	}
}
