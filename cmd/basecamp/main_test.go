package main

import (
	"strings"
	"testing"

	"everest/internal/runtime"
	"everest/internal/sdk"
)

func TestServeFleetSmoke(t *testing.T) {
	if err := serveFleet(2, 2, 1, 8, 4, runtime.PolicyHEFT, true, "", "eth100g", 0.05, 0.2, 0, false, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestServeFleetValidation(t *testing.T) {
	if err := serveFleet(2, 2, 1, 0, 4, runtime.PolicyHEFT, false, "", "tcp10g", 0.05, 0, 0, false, false, ""); err == nil {
		t.Fatal("zero workflows accepted")
	}
	if err := serveFleet(2, 2, 1, 8, 4, runtime.PolicyFIFO, false, "bogus", "tcp10g", 0.05, 0, 0, false, false, ""); err == nil {
		t.Fatal("bogus net accepted")
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
	if err := cmdServe([]string{"-sites", "2", "-fail", "node00@0.5"}); err == nil {
		t.Fatal("-fail with -sites > 1 accepted")
	}
	if err := cmdServe([]string{"-policy", "turbo"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestServeRejectsSingleSiteIncompatibleFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-slots", "2"},
		{"-registry-net", "eth100g"},
		{"-gap", "0.1"},
		{"-unplug-at", "0.2"},
		{"-suite"},
		{"-apps", "energy"},
	} {
		if err := cmdServe(args); err == nil {
			t.Fatalf("fleet-only flag %v accepted without -sites > 1", args)
		}
	}
}

func TestServeStreamSmoke(t *testing.T) {
	if err := serveStream(0, "", 0, 20000, 0, "poisson", true, false); err != nil {
		t.Fatal(err)
	}
}

func TestServeStreamRejectsUnknownApp(t *testing.T) {
	if err := serveStream(0, "nope", 0, 5000, 0, "poisson", true, false); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := serveStream(0, "", 0, 5000, 0, "sawtooth", true, false); err == nil {
		t.Fatal("unknown arrival process accepted")
	}
}

func TestServeRejectsStreamIncompatibleFlags(t *testing.T) {
	// Stream-only knobs outside -stream, and workflow-serving knobs
	// inside it, are conflicts, not silently ignored flags.
	for _, args := range [][]string{
		{"-rate", "4000"},
		{"-events", "1000"},
		{"-pipelines", "2"},
		{"-arrival", "bursty"},
		{"-partial=false"},
		{"-stream", "-workflows", "4"},
		{"-stream", "-sites", "2"},
		{"-stream", "-policy", "fifo"},
		{"-stream", "-cache-slots", "2"},
		{"-stream", "-suite"},
		{"-guaranteed"},                  // proven-bound class exists in fleet mode only
		{"-deadline", "2"},               // likewise its deadline knob
		{"-stream", "-guaranteed"},       // and the stream tier has its own QoS story
		{"-stream", "-deadline", "0.25"}, // (stream guarantees are per-event, not per-workflow)
	} {
		if err := cmdServe(args); err == nil {
			t.Fatalf("conflicting flags %v accepted", args)
		}
	}
}

func TestServeRegionsSmoke(t *testing.T) {
	if err := serveRegions(0, 60, 0, true, false, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestServeRegionsRejectsBadWAN(t *testing.T) {
	if err := serveRegions(0, 60, 0, true, false, "no-such-fabric", false); err == nil {
		t.Fatal("bogus WAN accepted")
	}
}

func TestServeRejectsRegionIncompatibleFlags(t *testing.T) {
	// The region tier is its own scenario: fleet/stream workload knobs
	// inside -regions, and region-only knobs outside it, are conflicts.
	for _, args := range [][]string{
		{"-regions", "3", "-sites", "2"},
		{"-regions", "3", "-stream"},
		{"-regions", "3", "-suite"},
		{"-regions", "3", "-guaranteed"},
		{"-regions", "3", "-nodes", "4"},
		{"-regions", "3", "-cache-slots", "2"},
		{"-prefetch=false"},
		{"-autoscale"},
		{"-wan", "wan1g"},
	} {
		if err := cmdServe(args); err == nil {
			t.Fatalf("conflicting flags %v accepted", args)
		}
	}
}

func TestServeFleetSuiteSmoke(t *testing.T) {
	if err := serveFleet(2, 2, 2, 6, 3, runtime.PolicyHEFT, true, "", "eth100g", 0.05, 0.2, 0, false, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestServeFleetSuiteRejectsUnknownApp(t *testing.T) {
	if err := serveFleet(2, 2, 2, 6, 3, runtime.PolicyHEFT, true, "", "eth100g", 0.05, 0, 0, false, true, "nope"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestServeKmeansSmoke(t *testing.T) {
	if err := serveKmeans(2, 4, 4, "", false); err != nil {
		t.Fatal(err)
	}
}

func TestServeKmeansRejectsBadFabric(t *testing.T) {
	if err := serveKmeans(2, 4, 4, "carrier-pigeon", false); err == nil {
		t.Fatal("bogus registry fabric accepted")
	}
}

func TestServeRejectsKmeansIncompatibleFlags(t *testing.T) {
	// The k-means data-plane run is its own scenario: workload knobs from
	// the other modes inside -kmeans, and kmeans-only knobs outside it,
	// are conflicts, not silently ignored flags.
	for _, args := range [][]string{
		{"-kmeans", "-workflows", "4"},
		{"-kmeans", "-stream"},
		{"-kmeans", "-suite"},
		{"-kmeans", "-guaranteed"},
		{"-kmeans", "-nodes", "4"},
		{"-kmeans", "-cache-slots", "2"},
		{"-kmeans", "-gap", "0.1"},
		{"-kmeans", "-policy", "fifo"},
		{"-kmeans", "-prefetch=false"},
		{"-regions", "2", "-kmeans"},
		{"-partitions", "8"},
		{"-centroids", "4"},
		{"-sites", "2", "-partitions", "8"},
		{"-stream", "-centroids", "4"},
	} {
		if err := cmdServe(args); err == nil {
			t.Fatalf("conflicting flags %v accepted", args)
		}
	}
}
