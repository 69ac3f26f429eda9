package sdk

import (
	"fmt"

	"everest/internal/base2"
	"everest/internal/netsim"
	"everest/internal/olympus"
	"everest/internal/runtime"
	"everest/internal/variants"
)

// This file closes the compilation side of the SDK loop (E-compile): a
// kernel compiled source-to-schedule by the variant pipeline is published,
// staged, and served through the same adaptive engine the hand-declared
// scenarios use — except that here every latency the scheduler consults is
// derived: the fpga execution time from the HLS schedule inside the
// generated bitstream, the software times from the CPU cost model over the
// compiled loop nest, and the tuner seeds from the compiled operating
// points (Workflow.SetVariants).

// CompiledWorkflow builds one E-compile workflow around a compiled kernel:
// an ingest stage feeding two instances of the kernel (the paper's
// replicated inference pattern) and a publish stage. The kernel tasks'
// flops, transfer footprint, and FPGA offload request all come from the
// compilation; only the software ingest/publish stages — which never
// offload — carry workload constants. Index i varies ingest weight so a
// stream of submissions resembles mixed traffic.
func CompiledWorkflow(i int, c *variants.Compiled) *runtime.Workflow {
	w := runtime.NewWorkflow()
	must := func(spec runtime.TaskSpec) {
		if err := w.Submit(spec); err != nil {
			panic(fmt.Sprintf("sdk: compiled workflow %d: %v", i, err))
		}
	}
	scale := 1 + float64(i%3)/2
	must(runtime.TaskSpec{Name: "ingest", Flops: 1e9 * scale, OutputBytes: c.InputBytes})
	for _, name := range []string{"k0", "k1"} {
		must(c.Task(name, "ingest"))
	}
	must(runtime.TaskSpec{Name: "publish", Deps: []string{"k0", "k1"},
		Flops: 5e8, InputBytes: 2 * c.OutputBytes})
	return w
}

// CompiledScenario bundles one run of the E-compile experiment: a kernel
// compiled source-to-schedule, staged on part of the cluster, and served
// under mid-run faults — once on the static engine (hand-declared path:
// placement from the design-time task cost model, no tuner) and once
// adaptively with the compiled operating points seeding each workflow's
// tuner. Transfers are priced over the packetization-aware cloudFPGA
// stack in both arms.
type CompiledScenario struct {
	Kernel    string // built-in example kernel name (variants.ExampleNames)
	Opt       variants.Options
	Workflows int
	Nodes     int // compute nodes (DefaultCluster adds cloudfpga0)
	FPGANodes int // nodes the compiled bitstream is staged on (prefix)
	Tenants   int
	Slowdown  float64 // load factor hitting the last compute node
	FaultAt   float64 // modelled time both faults take effect
	Net       string  // netsim stack name ("" = flat cluster fabric)
}

// DefaultCompiledScenario is the E-compile configuration: the windpower
// KRR kernel compiled for fixed-point Vitis with banked PLMs (8 ports),
// two of four nodes carrying the bitstream, an unplug of one accelerator
// plus a 6x slowdown of one software node mid-run, and TCP/10G transfer
// pricing.
func DefaultCompiledScenario() CompiledScenario {
	return CompiledScenario{
		Kernel:    "windpower",
		Opt:       DefaultCompileOptions(),
		Workflows: 8, Nodes: 4, FPGANodes: 2, Tenants: 2,
		Slowdown: 6, FaultAt: 0.005,
		Net: "tcp10g",
	}
}

// DefaultCompileOptions is the E-compile flow configuration: fixed-point
// datapath (single-cycle accumulate, so the reduction does not bound the
// II), PLMs banked 8 ways, and the full Olympus optimization ladder.
func DefaultCompileOptions() variants.Options {
	fixed, err := base2.NewFixedFormat(4, 12)
	if err != nil {
		panic(fmt.Sprintf("sdk: default compile format: %v", err))
	}
	oly := DefaultOlympus()
	oly.MemPorts = 8
	return variants.Options{
		Backend: "vitis",
		Format:  fixed,
		Device:  "alveo-u55c",
		Olympus: oly,
	}
}

// Compile runs the scenario's kernel source-to-schedule.
func (sc CompiledScenario) Compile() (*variants.Compiled, error) {
	return variants.CompileExample(sc.Kernel, sc.Opt)
}

// Run serves the scenario's workflows once, compiling the kernel first.
// Both arms of a comparison should share one compilation: compile once
// with Compile and pass the result to RunWith.
func (sc CompiledScenario) Run(adaptive bool) (ScenarioResult, error) {
	c, err := sc.Compile()
	if err != nil {
		return ScenarioResult{}, err
	}
	return sc.RunWith(c, adaptive)
}

// RunWith serves the scenario's workflows once around an already-compiled
// kernel (from sc.Compile). adaptive selects the engine mode; the
// compiled kernel, cluster shape, staged bitstreams, fault script, and
// network stack are identical across modes, so the makespan ratio
// isolates what compiler-derived variant knowledge buys. Workflows are
// served one at a time, so the measured makespan is exactly
// deterministic under any goroutine interleaving and GOMAXPROCS.
func (sc CompiledScenario) RunWith(c *variants.Compiled, adaptive bool) (ScenarioResult, error) {
	if sc.Workflows < 1 || sc.Nodes < 2 || sc.FPGANodes < 1 || sc.FPGANodes > sc.Nodes {
		return ScenarioResult{}, fmt.Errorf("sdk: bad compiled scenario %+v", sc)
	}
	if sc.Slowdown < 1 {
		return ScenarioResult{}, fmt.Errorf("sdk: compiled scenario slowdown %g must be >= 1", sc.Slowdown)
	}
	if c == nil || c.Design == nil {
		return ScenarioResult{}, fmt.Errorf("sdk: compiled scenario needs a compiled kernel")
	}
	s := New(DefaultCluster(sc.Nodes))
	if err := s.Registry.Put(c.Design.Bitstream); err != nil {
		return ScenarioResult{}, err
	}
	for i := 0; i < sc.FPGANodes; i++ {
		if _, err := s.Deploy(c.Design.Bitstream.ID, s.Cluster.Nodes[i].Name); err != nil {
			return ScenarioResult{}, err
		}
	}

	var stack *netsim.Stack
	if sc.Net != "" {
		st, err := netsim.StackByName(sc.Net)
		if err != nil {
			return ScenarioResult{}, err
		}
		stack = &st
	}
	events := []runtime.EnvEvent{
		{Kind: runtime.EnvUnplug, Node: s.Cluster.Nodes[0].Name, Device: 0, At: sc.FaultAt},
		{Kind: runtime.EnvSlowdown, Node: s.Cluster.Nodes[sc.Nodes-1].Name, Factor: sc.Slowdown, At: sc.FaultAt},
	}
	srv := s.NewServer(ServerConfig{
		Policy: runtime.PolicyHEFT, Adaptive: adaptive, Events: events, Net: stack,
	})
	tenants := sc.Tenants
	if tenants < 1 {
		tenants = 1
	}
	if err := srv.Start(); err != nil {
		return ScenarioResult{}, err
	}
	for i := 0; i < sc.Workflows; i++ {
		w := CompiledWorkflow(i, c)
		if adaptive {
			w.SetVariants(c.Variants())
		}
		sub, err := srv.Submit(fmt.Sprintf("tenant%02d", i%tenants), "", w)
		if err != nil {
			return ScenarioResult{}, err
		}
		if _, err := sub.Wait(); err != nil {
			return ScenarioResult{}, fmt.Errorf("sdk: compiled scenario workflow %d: %w", i, err)
		}
	}
	stats := srv.Shutdown()
	return ScenarioResult{
		Stats: stats, Makespan: stats.Makespan,
		Health: srv.Monitor().Snapshot(),
	}, nil
}

// AdaptWinWith serves the scenario statically and then adaptively around
// one compilation and returns both runs; the makespan ratio is what the
// compiler-derived operating points buy.
func (sc CompiledScenario) AdaptWinWith(c *variants.Compiled) (static, adaptive ScenarioResult, err error) {
	if static, err = sc.RunWith(c, false); err == nil {
		adaptive, err = sc.RunWith(c, true)
	}
	return static, adaptive, err
}

// DefaultOlympus is the full system-generation optimization ladder used by
// the compiled path (matching `basecamp compile` defaults).
func DefaultOlympus() olympus.Options {
	return olympus.Options{
		SharePLM: true, DoubleBuffer: true, Replicate: true,
		MaxReplicas: 8, PackData: true,
	}
}
