// Package apps is the EVEREST application workload registry: the paper's
// three driver applications — WRF-based weather ensembles (§II-A),
// renewable-energy prediction (§II-B), and traffic modelling (§II-D) —
// modelled as multi-stage DAG workflows whose accelerable stages are
// compiled source-to-schedule through the variant pipeline
// (internal/variants). Every accelerable stage carries its own compiled
// kernel and bitstream, so a workflow's tasks can request different
// per-stage bitstreams and its tuner seeds merge the compiled operating
// points — nothing on the accelerated path is hand-declared.
//
// The registry is what feeds the serving stack: sdk.FleetScenario's mixed
// suite interleaves the registered applications across tenants, `basecamp
// serve suite` and `basecamp bench suite` serve them through
// the fleet tier, and the examples build their workflows from here
// instead of wiring internals by hand.
package apps

import (
	"fmt"
	"sort"

	"everest/internal/autotuner"
	"everest/internal/base2"
	"everest/internal/olympus"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/variants"
)

// StageKernel binds one accelerable DAG stage to its compiled kernel.
type StageKernel struct {
	Stage    string
	Compiled *variants.Compiled
}

// App is one registered application: a workflow generator plus the
// compiled kernels of its accelerable stages.
type App struct {
	Name    string
	Title   string
	Kernels []StageKernel

	// BatchEvents is how many stream events one workflow instance's batch
	// stands for (GPS points, forecast-horizon meter readings, atmospheric
	// columns). The streaming tier divides the app's batch stage costs by
	// it to derive per-event operator costs.
	BatchEvents int

	// build constructs the i-th workflow instance. Implementations vary
	// software-stage weights with i so a stream of submissions resembles
	// mixed traffic, and must be deterministic in i.
	build func(i int) *runtime.Workflow
}

// Workflow returns the application's i-th workflow instance with the
// merged compiled operating points attached (Workflow.SetVariants), ready
// for adaptive serving.
func (a *App) Workflow(i int) *runtime.Workflow {
	w := a.build(i)
	if vs := a.Variants(); len(vs) > 0 {
		w.SetVariants(vs)
	}
	return w
}

// Variants merges the operating points of every stage kernel into one
// tuner seed set (mean expected latency per variant across stages).
func (a *App) Variants() []autotuner.Variant {
	cs := make([]*variants.Compiled, 0, len(a.Kernels))
	for _, k := range a.Kernels {
		cs = append(cs, k.Compiled)
	}
	return variants.MergeVariants(cs...)
}

// Bitstreams returns the distinct bitstreams the application's stages
// request, in stage order. Serving tiers publish these to the registry.
func (a *App) Bitstreams() []platform.Bitstream {
	var out []platform.Bitstream
	seen := make(map[string]bool)
	for _, k := range a.Kernels {
		if k.Compiled == nil || k.Compiled.Design == nil {
			continue
		}
		bs := k.Compiled.Design.Bitstream
		if seen[bs.ID] {
			continue
		}
		seen[bs.ID] = true
		out = append(out, bs)
	}
	return out
}

// Kernel returns the compiled kernel of a stage, if it is accelerable.
func (a *App) Kernel(stage string) (*variants.Compiled, bool) {
	for _, k := range a.Kernels {
		if k.Stage == stage {
			return k.Compiled, true
		}
	}
	return nil, false
}

// Names lists the registered applications in stable order.
func Names() []string { return []string{"energy", "traffic", "weather"} }

// DefaultOptions is the suite's compile configuration: fixed-point
// datapath (single-cycle accumulate) with PLMs banked 8 ways and the full
// Olympus optimization ladder — the configuration under which the
// accelerable stages win their offload (matching `basecamp compile`'s
// E-compile defaults).
func DefaultOptions() variants.Options {
	fixed, err := base2.NewFixedFormat(4, 12)
	if err != nil {
		panic(fmt.Sprintf("apps: default fixed format: %v", err))
	}
	return variants.Options{
		Backend: "vitis",
		Format:  fixed,
		Device:  "alveo-u55c",
		Olympus: olympus.Options{
			SharePLM: true, DoubleBuffer: true, Replicate: true,
			MaxReplicas: 8, PackData: true, MemPorts: 8,
		},
	}
}

// Build compiles one registered application's accelerable stages and
// returns the ready App.
func Build(name string, opt variants.Options) (*App, error) {
	switch name {
	case "energy":
		return buildEnergy(opt)
	case "traffic":
		return buildTraffic(opt)
	case "weather":
		return buildWeather(opt)
	case "kmeans":
		// Buildable by name but not in Names(): the mixed suite's
		// interleave stays the paper's three drivers.
		return buildKmeans(opt)
	}
	return nil, fmt.Errorf("apps: unknown application %q (want one of %v)", name, Names())
}

// Suite is a set of built applications served as one mixed workload.
type Suite struct {
	Apps []*App
}

// BuildSuite compiles the named applications (all registered ones when
// names is empty) in sorted order, so the suite's interleave is
// independent of caller argument order.
func BuildSuite(opt variants.Options, names ...string) (*Suite, error) {
	if len(names) == 0 {
		names = Names()
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	seen := make(map[string]bool, len(sorted))
	s := &Suite{}
	for _, name := range sorted {
		if seen[name] {
			return nil, fmt.Errorf("apps: duplicate application %q", name)
		}
		seen[name] = true
		app, err := Build(name, opt)
		if err != nil {
			return nil, err
		}
		s.Apps = append(s.Apps, app)
	}
	return s, nil
}

// Workflow returns the i-th submission of the mixed suite: applications
// interleave round-robin (deterministic in i alone, so the stream is
// identical across GOMAXPROCS and arrival modes), each advancing through
// its own workflow instances.
func (s *Suite) Workflow(i int) (*App, *runtime.Workflow) {
	app := s.AppOf(i)
	return app, app.Workflow(i / len(s.Apps))
}

// AppOf returns the application serving the i-th submission without
// building its workflow (the cheap lookup result reporting needs).
func (s *Suite) AppOf(i int) *App {
	return s.Apps[i%len(s.Apps)]
}

// Bitstreams returns the distinct bitstreams across the suite.
func (s *Suite) Bitstreams() []platform.Bitstream {
	var out []platform.Bitstream
	seen := make(map[string]bool)
	for _, a := range s.Apps {
		for _, bs := range a.Bitstreams() {
			if seen[bs.ID] {
				continue
			}
			seen[bs.ID] = true
			out = append(out, bs)
		}
	}
	return out
}
