package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"everest/internal/sdk"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

func serve(args ...string) error { return cmdServe(args) }
func bench(args ...string) error { return cmdBench(args) }

// rejectAll fails the test for every argument list the command accepts.
func rejectAll(t *testing.T, cmd func(...string) error, cases [][]string) {
	t.Helper()
	for _, args := range cases {
		if err := cmd(args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestScenarioFlags: each scenario owns its flag set, so a flag it does
// not read is an error rather than silently dropped, and a flag it does
// read reaches the run.
func TestScenarioFlags(t *testing.T) {
	rejectAll(t, serve, [][]string{{"stream", "-sites", "2"}, {"engine", "-prefetch=false"}})
	rejectAll(t, bench, [][]string{{"kmeans", "-deadlines", "1"}, {"wcet", "-unplug-at", "soon"}})
	rejectAll(t, serve, [][]string{{"wcet", "-deadline", "0"}}) // a config error, not 16 rejections
	for _, tc := range []struct {
		run  func(...string) error
		args []string
		want string
	}{
		{bench, []string{"wcet", "-sites", "2", "-deadlines", "4"}, "fleet      : 2 sites x"},
		// -unplug-at moves site 0's scripted unplug, 0 drops it, and
		// neither touches the preset the next run starts from.
		{bench, []string{"wcet", "-unplug-at", "0.3", "-deadlines", "4"}, "faults     : unplug@0.3s + 3x slowdown@0.4s on site 0"},
		{bench, []string{"wcet", "-unplug-at", "0", "-deadlines", "4"}, "faults     : 3x slowdown@0.4s on site 0"},
		{bench, []string{"wcet", "-deadlines", "4"}, "faults     : unplug@0.5s + 3x slowdown@0.4s on site 0"},
		{serve, []string{"stream", "-events", "5000", "-pipelines", "2"}, "stream     : 2 pipelines over [traffic energy], 5000 events each"},
		{serve, []string{"kmeans", "-sites", "2", "-partitions", "4"}, "fleet      : 2 sites over wan1g"},
	} {
		out, err := capture(t, func() error { return tc.run(tc.args...) })
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

func TestServeNeedsAKnownScenario(t *testing.T) {
	rejectAll(t, serve, [][]string{{}, {"-sites", "2"}, {"nope"}, {"fleet", "extra"}})
	rejectAll(t, bench, [][]string{{"E99"}, {"nope"}})
}

func TestServeEngineSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return serve("engine", "-workflows", "3", "-nodes", "2", "-fail", "node00@0.001",
			"-adaptive", "-net", "tcp10g", "-policy", "fifo", "-trace")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every submission resolves exactly once, and the trace names each
	// event's tenant.
	for _, want := range []string{"3 submitted, 3 done, 0 failed", "tenant=tenant00"} {
		if !strings.Contains(out, want) {
			t.Errorf("traced serve engine output lacks %q:\n%s", want, out)
		}
	}
	rejectAll(t, serve, [][]string{
		{"engine", "-workflows", "0"},
		{"engine", "-net", "bogus"},
		{"engine", "-fail", "node99@0.5"},
		{"engine", "-fail", "node00@xyz"},
		{"engine", "-fail", "node00@0.5junk"},
		{"engine", "-fail", "node00@-3"},
		{"engine", "-fail", "node00@NaN"},
		{"engine", "-fail", "node00@Inf"},
	})
	// The default run is deterministic. Workflow names break ties in the
	// engine, so a change to them moves these numbers.
	out, err = capture(t, func() error { return serve("engine") })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"concurrent : 1.57s", "speedup    : 3.37x", "62 batched"} {
		if !strings.Contains(out, want) {
			t.Errorf("default serve engine output lacks %q:\n%s", want, out)
		}
	}
}

func TestServeFleetSmoke(t *testing.T) {
	if err := serve("fleet", "-sites", "2", "-nodes", "2", "-workflows", "8", "-tenants", "4",
		"-registry-net", "eth100g", "-unplug-at", "0.2", "-trace"); err != nil {
		t.Fatal(err)
	}
}

func TestServeFleetValidation(t *testing.T) {
	rejectAll(t, serve, [][]string{
		{"fleet", "-sites", "2", "-workflows", "0"},
		{"fleet", "-sites", "2", "-workflows", "8", "-net", "bogus"},
		{"fleet", "-policy", "turbo"},
	})
}

func TestServeWCETSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return serve("wcet", "-sites", "2", "-workflows", "16", "-deadline", "8")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "at deadline 8s") || !strings.Contains(out, "0 violations") {
		t.Fatalf("guaranteed accounting missing:\n%s", out)
	}
}

func TestFormatByName(t *testing.T) {
	for _, name := range []string{"", "f32", "f64", "bf16", "f16", "fixed16", "posit16"} {
		if _, err := formatByName(name); err != nil {
			t.Fatalf("format %q: %v", name, err)
		}
	}
	if _, err := formatByName("int4"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestIsExampleKernel(t *testing.T) {
	if !isExampleKernel("windpower") {
		t.Fatal("windpower is a built-in example")
	}
	if isExampleKernel("nope") {
		t.Fatal("unknown kernel accepted")
	}
}

func TestTenantAdaptSummary(t *testing.T) {
	if got := tenantAdaptSummary(sdk.TenantStats{}); got != "" {
		t.Fatalf("idle tenant summary = %q, want empty", got)
	}
	got := tenantAdaptSummary(sdk.TenantStats{
		Reschedules: 2, Fallbacks: 1,
		Variants: map[string]int{"fpga": 3, "cpu16": 1},
	})
	for _, want := range []string{"2 resched", "1 fallback", "fpga:3", "cpu16:1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary %q missing %q", got, want)
		}
	}
}

func TestServeRejectsFleetIncompatibleFlags(t *testing.T) {
	rejectAll(t, serve, [][]string{
		{"fleet", "-fail", "node00@0.5"}, // engine faults are scripted per site here
		{"fleet", "-apps", "energy"},     // the app list belongs to the suite scenario
		{"fleet", "-deadline", "2"},      // and the deadline to the wcet scenario
		{"fleet", "-gaps", "0.1"},        // a ladder is a bench, not a serving pass
		{"wcet", "-closed"},
		{"wcet", "-slo", "1"},
	})
}

func TestServeRejectsSingleSiteIncompatibleFlags(t *testing.T) {
	rejectAll(t, serve, [][]string{
		{"engine", "-sites", "2"},
		{"engine", "-cache-slots", "2"},
		{"engine", "-registry-net", "eth100g"},
		{"engine", "-gap", "0.1"},
		{"engine", "-unplug-at", "0.2"},
		{"engine", "-apps", "energy"},
		{"engine", "-closed"},
		{"engine", "-deadline", "2"},
	})
}

func TestServeStreamSmoke(t *testing.T) {
	if err := serve("stream", "-events", "20000"); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return serve("stream", "-events", "500", "-pipelines", "1", "-apps", "traffic", "-trace")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "bs=traffic") {
		t.Errorf("stream trace names no bitstream:\n%s", out)
	}
}

func TestServeStreamRejectsUnknownApp(t *testing.T) {
	rejectAll(t, serve, [][]string{
		{"stream", "-apps", "nope", "-events", "5000"},
		{"stream", "-arrival", "sawtooth", "-events", "5000"},
	})
}

func TestServeRejectsStreamIncompatibleFlags(t *testing.T) {
	rejectAll(t, serve, [][]string{
		{"engine", "-rate", "4000"},
		{"engine", "-events", "1000"},
		{"engine", "-pipelines", "2"},
		{"engine", "-arrival", "bursty"},
		{"engine", "-partial=false"},
		{"stream", "-workflows", "4"},
		{"stream", "-policy", "fifo"},
		{"stream", "-cache-slots", "2"},
		{"stream", "-deadline", "0.25"}, // stream guarantees are per-event, not per-workflow
		{"stream", "-rates", "1000"},    // the rate ladder is `bench stream`
	})
}

func TestServeRegionsSmoke(t *testing.T) {
	out, err := capture(t, func() error { return serve("region", "-workflows", "60", "-prefetch=false", "-trace") })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bs=traffic", "batch p95 ", "bound tightness "} {
		if !strings.Contains(out, want) {
			t.Errorf("traced serve region output lacks %q", want)
		}
	}
}

func TestServeRegionsRejectsBadWAN(t *testing.T) {
	rejectAll(t, serve, [][]string{{"region", "-workflows", "60", "-wan", "no-such-fabric"}})
}

func TestServeRejectsRegionIncompatibleFlags(t *testing.T) {
	rejectAll(t, serve, [][]string{
		{"region", "-sites", "2"},
		{"region", "-nodes", "4"},
		{"region", "-cache-slots", "2"},
		{"region", "-deadline", "2"},
		{"region", "-apps", "energy"},
		{"region", "-autoscale"}, // every region site serves; there is no scaling knob
		{"fleet", "-prefetch=false"},
		{"engine", "-regions", "2"},
		{"stream", "-wan", "wan1g"},
	})
	rejectAll(t, bench, [][]string{{"region", "-prefetch=false"}}) // the bench serves both arms
}

func TestServeFleetSuiteSmoke(t *testing.T) {
	if err := serve("suite", "-sites", "2", "-nodes", "2", "-cache-slots", "2", "-workflows", "6",
		"-tenants", "3", "-registry-net", "eth100g", "-unplug-at", "0.2"); err != nil {
		t.Fatal(err)
	}
}

func TestServeFleetSuiteRejectsUnknownApp(t *testing.T) {
	rejectAll(t, serve, [][]string{{"suite", "-sites", "2", "-workflows", "6", "-apps", "nope"}})
}

func TestServeKmeansSmoke(t *testing.T) {
	if err := serve("kmeans", "-sites", "2", "-partitions", "4", "-centroids", "4", "-trace"); err != nil {
		t.Fatal(err)
	}
}

func TestServeKmeansRejectsBadFabric(t *testing.T) {
	rejectAll(t, serve, [][]string{{"kmeans", "-sites", "2", "-partitions", "4", "-registry-net", "carrier-pigeon"}})
}

func TestServeRejectsKmeansIncompatibleFlags(t *testing.T) {
	rejectAll(t, serve, [][]string{
		{"kmeans", "-workflows", "4"},
		{"kmeans", "-nodes", "4"},
		{"kmeans", "-cache-slots", "2"},
		{"kmeans", "-gap", "0.1"},
		{"kmeans", "-policy", "fifo"},
		{"kmeans", "-prefetch=false"},
		{"fleet", "-partitions", "8"},
		{"stream", "-centroids", "4"},
	})
}

func TestRunSaturationOpen(t *testing.T) {
	out, err := capture(t, func() error {
		return bench("fleet", "-sites", "2", "-nodes", "2", "-tenants", "4", "-workflows", "12",
			"-gaps", "0.64,0.01", "-registry-net", "eth100g")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "throughput_at_slo:") {
		t.Fatalf("no headline:\n%s", out)
	}
}

func TestRunSaturationClosed(t *testing.T) {
	if err := serve("fleet", "-closed", "-sites", "2", "-nodes", "2", "-tenants", "4", "-workflows", "12"); err != nil {
		t.Fatal(err)
	}
}

func TestRunSaturationRejectsBadFlags(t *testing.T) {
	rejectAll(t, bench, [][]string{
		{"fleet", "-mode", "closed"}, // closed loop is `serve fleet -closed`
		{"fleet", "-gaps", "not-a-number"},
		{"fleet", "-gaps", "0.1,0.1"},
		{"fleet", "-gaps", "0.1", "-net", "bogus"},
		// An SLO no rung can meet is an explicit error, not a zero metric.
		{"fleet", "-sites", "1", "-tenants", "4", "-workflows", "12", "-slo", "1e-9", "-gaps", "0.001"},
	})
}

func TestRunSaturationSuiteOpen(t *testing.T) {
	if err := bench("suite", "-sites", "2", "-nodes", "2", "-tenants", "6", "-workflows", "12",
		"-gaps", "0.64,0.01", "-registry-net", "eth100g"); err != nil {
		t.Fatal(err)
	}
}

func TestRunSaturationSuiteClosedSubset(t *testing.T) {
	if err := serve("suite", "-closed", "-sites", "2", "-nodes", "2", "-tenants", "6", "-workflows", "8",
		"-apps", "energy, weather"); err != nil {
		t.Fatal(err)
	}
}

func TestRunSaturationSuiteRejectsUnknownApp(t *testing.T) {
	rejectAll(t, bench, [][]string{{"suite", "-sites", "2", "-workflows", "8", "-gaps", "0.64", "-apps", "nope"}})
}

func TestRunWCETSmoke(t *testing.T) {
	if err := bench("wcet", "-deadlines", "2,4"); err != nil {
		t.Fatal(err)
	}
}

func TestRunWCETRejectsBadDeadlines(t *testing.T) {
	rejectAll(t, bench, [][]string{
		{"wcet", "-deadlines", "not-a-number"},
		{"wcet", "-deadlines", "0"},
	})
}

func TestRunStreamSmoke(t *testing.T) {
	if err := bench("stream", "-events", "20000", "-rates", "2000,4000"); err != nil {
		t.Fatal(err)
	}
}

func TestRunStreamRejectsBadFlags(t *testing.T) {
	rejectAll(t, bench, [][]string{
		{"stream", "-events", "5000", "-rates", "not-a-number"},
		{"stream", "-events", "5000", "-rates", "0,4000"},
		{"stream", "-events", "5000", "-rates", "2000", "-apps", "nope"},
		// An SLO no rung can meet is an explicit error, not a zero metric.
		{"stream", "-events", "5000", "-rates", "4000", "-slo", "1e-9"},
	})
}

// TestRunRegionsSmoke runs the full E-region contrast (both prefetch
// arms over the shared suite); the bench itself errors on any
// guaranteed-bound violation or a degenerate prefetch-on arm.
func TestRunRegionsSmoke(t *testing.T) {
	if err := bench("region"); err != nil {
		t.Fatal(err)
	}
}

// TestRunDataSmoke runs the full E-data contrast (both routing arms of
// the map-reduce k-means); the bench itself errors on a degenerate
// locality arm.
func TestRunDataSmoke(t *testing.T) {
	if err := bench("kmeans"); err != nil {
		t.Fatal(err)
	}
}

func TestBenchAdaptSmoke(t *testing.T) {
	for _, name := range []string{"adapt", "compiled"} {
		out, err := capture(t, func() error { return bench(name, "-workflows", "4") })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "speedup    :") {
			t.Fatalf("%s: no speedup line:\n%s", name, out)
		}
	}
	rejectAll(t, bench, [][]string{{"adapt", "-slow", "0.5"}, {"adapt", "-compiled"}})
}

func TestBenchExperiments(t *testing.T) {
	out, err := capture(t, func() error { return bench("-list") })
	if err != nil || !strings.HasPrefix(out, "E1\n") || !strings.Contains(out, "E14\n") {
		t.Fatalf("-list: err %v, output %q", err, out)
	}
	if err := bench("e2"); err != nil {
		t.Fatal(err)
	}
}

// TestProfileHelpers covers the -cpuprofile/-memprofile plumbing: both
// helpers must produce non-empty pprof files and surface unwritable paths
// as errors instead of exiting mid-profile.
func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := startCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1000; i++ { // give the profiler something to sample
		sink += i * i
	}
	_ = sink
	stop()
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
	if _, err := startCPUProfile(dir); err == nil {
		t.Error("cpu profile into a directory path must error")
	}

	mem := filepath.Join(dir, "mem.pprof")
	if err := writeHeapProfile(mem); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile missing or empty: %v", err)
	}
	if err := writeHeapProfile(dir); err == nil {
		t.Error("heap profile into a directory path must error")
	}

	// Through the bench front door: both profiles written around a run,
	// and an unwritable path fails the command.
	cpu2, mem2 := filepath.Join(dir, "b-cpu.pprof"), filepath.Join(dir, "b-mem.pprof")
	if err := bench("adapt", "-cpuprofile", cpu2, "-memprofile", mem2); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu2, mem2} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("%s missing or empty: %v", p, err)
		}
	}
	rejectAll(t, bench, [][]string{{"adapt", "-cpuprofile", dir}, {"adapt", "-memprofile", dir}})
}
