package sdk

import (
	"errors"
	"fmt"

	"everest/internal/hls"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/variants"
	"everest/internal/virt"
)

// This file wires the adaptive loop's outer layers: the virt→engine
// bridge that turns SR-IOV hot-plug notifications into engine
// environment events (AttachHypervisor, which E7 drives), the
// FPGA-leaning synthetic workload the adaptive-placement experiments
// schedule (AdaptiveWorkflow: E7 and E-adapt), and the engine-tier
// scenario both adaptation experiments (E-adapt, E-compile) serve.

// AttachHypervisor subscribes an engine to a hypervisor's hot-plug
// notifications, closing the virt side of the adaptation loop:
// when the last VF of a device is unplugged the accelerator disappears
// from the engine's world, and the first replugged VF brings it back.
// Each notification is one runtime.Engine.Apply, so it waits for a
// running serve to return and reaches only the workflows submitted after
// it; the engine's trace callback must therefore not plug or unplug a VF
// of an attached hypervisor. clock, when set, supplies the modelled time
// stamped on the engine events. Attachment is derived from the
// hypervisor's VF table at attach time, before or after Start: a device
// whose guests hold no VF while guests exist is unreachable, exactly as
// if its last VF had just been unplugged.
//
// A hypervisor over a node the engine does not serve, or with more
// devices than the engine's node of that name, is refused and not
// subscribed: its hot-plug events could reach no accelerator. An
// attach-time detach the engine refuses (runtime.ErrShutDown after
// Shutdown) is returned too.
func AttachHypervisor(e *runtime.Engine, h *virt.Hypervisor, clock func() float64) error {
	node := h.Node.Name
	if err := servesNode(e, node, len(h.Node.Devices)); err != nil {
		return err
	}
	now := func() float64 {
		if clock == nil {
			return 0
		}
		return clock()
	}
	apply := func(kind runtime.EnvEventKind, dev int) error {
		return e.Apply(runtime.EnvEvent{Kind: kind, Node: node, Device: dev, At: now()})
	}
	h.Subscribe(func(ev virt.HotplugEvent) {
		var err error
		switch {
		case ev.Kind == virt.VFUnplugged && ev.AssignedVFs == 0:
			err = apply(runtime.EnvUnplug, ev.Device)
		case ev.Kind == virt.VFPlugged && ev.AssignedVFs == 1:
			err = apply(runtime.EnvPlug, ev.Device)
		}
		// A shut-down engine serves nothing more, and the hypervisor keeps
		// every engine ever attached subscribed, so its refusal is the
		// expected answer. Attach checked the node and its devices, so any
		// other refusal comes from a non-finite clock: a caller's bug that
		// would lose the event, reported on the plugging goroutine.
		if err != nil && !errors.Is(err, runtime.ErrShutDown) {
			panic(fmt.Sprintf("sdk: hot-plug event refused: %v", err))
		}
	})
	st := h.Query()
	if len(st.VMs) == 0 {
		return nil // no guests: host-side access, devices stay attached
	}
	for dev := 0; dev < len(st.AssignedVFs); dev++ { // device order: a deterministic trace
		if st.AssignedVFs[dev] == 0 {
			if err := apply(runtime.EnvUnplug, dev); err != nil {
				return err
			}
		}
	}
	return nil
}

// servesNode checks that e serves the named node with at least devices
// devices.
func servesNode(e *runtime.Engine, node string, devices int) error {
	for _, nh := range e.Health() {
		if nh.Node != node {
			continue
		}
		if devices > nh.DevicesTotal {
			return fmt.Errorf("sdk: hypervisor exposes %d devices of node %s, the engine serves %d",
				devices, node, nh.DevicesTotal)
		}
		return nil
	}
	return fmt.Errorf("sdk: engine serves no node %q", node)
}

// AdaptiveWorkflow returns a deterministic FPGA-leaning workflow for the
// adaptive-placement experiments (E7, E-adapt): a prep stage feeding two offloadable
// compute stages and a software post stage. The offload weight is what
// makes placement react to hot-plug faults; index i varies the task sizes
// like SyntheticWorkflow does.
func AdaptiveWorkflow(i int, bitstreamID string) *runtime.Workflow {
	w := runtime.NewWorkflow()
	must := func(spec runtime.TaskSpec) {
		if err := w.Submit(spec); err != nil {
			panic(fmt.Sprintf("sdk: adaptive workflow %d: %v", i, err))
		}
	}
	scale := 1 + float64(i%3)/2
	must(runtime.TaskSpec{Name: "prep", Flops: 2e9 * scale, OutputBytes: 1 << 22})
	for _, name := range []string{"mc0", "mc1"} {
		must(runtime.TaskSpec{
			Name: name, Deps: []string{"prep"},
			Flops: 4e10 * scale, InputBytes: 1 << 22, OutputBytes: 1 << 20,
			NeedsFPGA: true, BitstreamID: bitstreamID,
		})
	}
	must(runtime.TaskSpec{Name: "post", Deps: []string{"mc0", "mc1"},
		Flops: 1e9, InputBytes: 1 << 21})
	return w
}

// AdaptiveScenario bundles one run of an engine-tier adaptation
// experiment: the same workflows, faults, and cluster served twice —
// statically and adaptively — so the two makespans are directly
// comparable. With no kernel named it serves the hand-declared
// Monte-Carlo workload (E-adapt). With one named, the kernel is compiled
// source-to-schedule and served in CompiledWorkflow, the adaptive arm's
// tuners seeded from the compiled operating points (E-compile).
type AdaptiveScenario struct {
	Kernel    string           // built-in example kernel (variants.ExampleNames); "" = hand-declared
	Opt       variants.Options // flow configuration compiling Kernel
	Workflows int
	Nodes     int // compute nodes (DefaultCluster adds cloudfpga0)
	FPGANodes int // nodes the bitstream is staged on (prefix of the cluster)
	Tenants   int
	Slowdown  float64 // load factor hitting the last compute node
	FaultAt   float64 // modelled time both faults take effect
	Net       string  // netsim stack pricing transfers ("" = flat cluster fabric)
}

// DefaultAdaptiveScenario is the E-adapt configuration: an unplug of one
// of two accelerators plus a 6x slowdown of one software node, both
// effective mid-run in modelled time.
func DefaultAdaptiveScenario() AdaptiveScenario {
	return AdaptiveScenario{Workflows: 8, Nodes: 4, FPGANodes: 2, Tenants: 2, Slowdown: 6, FaultAt: 0.1}
}

// DefaultCompiledScenario is the E-compile configuration: the windpower
// KRR kernel compiled for fixed-point Vitis with banked PLMs (8 ports),
// two of four nodes carrying the bitstream, an unplug of one accelerator
// plus a 6x slowdown of one software node mid-run, and TCP/10G transfer
// pricing. The static arm is the hand-declared path (placement from the
// design-time task cost model, no tuner).
func DefaultCompiledScenario() AdaptiveScenario {
	return AdaptiveScenario{
		Kernel:    "windpower",
		Opt:       DefaultCompileOptions(),
		Workflows: 8, Nodes: 4, FPGANodes: 2, Tenants: 2,
		Slowdown: 6, FaultAt: 0.005,
		Net: "tcp10g",
	}
}

// ScenarioResult is one serving run of the scenario.
type ScenarioResult struct {
	Stats    Tally
	Makespan float64
	Health   []platform.NodeHealth // monitor snapshot after the run
}

// Compile runs the scenario's kernel source-to-schedule; with no kernel
// named there is nothing to compile and it returns nil.
func (sc AdaptiveScenario) Compile() (*variants.Compiled, error) {
	if sc.Kernel == "" {
		return nil, nil
	}
	return variants.CompileExample(sc.Kernel, sc.Opt)
}

// AdaptWin serves the scenario statically and then adaptively around c,
// its compilation from Compile, and returns both runs; everything but the
// engine mode is identical, so the makespan ratio is the value of
// adaptation.
func (sc AdaptiveScenario) AdaptWin(c *variants.Compiled) (static, adaptive ScenarioResult, err error) {
	if static, err = sc.serve(c, false); err == nil {
		adaptive, err = sc.serve(c, true)
	}
	return static, adaptive, err
}

// serve runs the scenario once around c. Everything but the engine mode —
// cluster shape, staged bitstreams, workflows, network stack, and the
// fault script — is identical across modes. The faults are modelled-time
// condition timelines (engine Events): from FaultAt onward the first FPGA
// node's accelerator is detached and the last compute node is slowed, and
// execution prices each task by the state at its own modelled start.
// Workflows are served one at a time, so node clocks and placements
// advance in a single modelled sequence and the makespan is identical
// under any goroutine interleaving and GOMAXPROCS — which is what lets CI
// gate the resulting speedup. Multiplexing is what
// BenchmarkConcurrentWorkflows measures instead.
func (sc AdaptiveScenario) serve(c *variants.Compiled, adaptive bool) (ScenarioResult, error) {
	if sc.Workflows < 1 || sc.Nodes < 2 || sc.FPGANodes < 1 || sc.FPGANodes > sc.Nodes {
		return ScenarioResult{}, fmt.Errorf("sdk: bad adaptive scenario %+v", sc)
	}
	if sc.Slowdown < 1 {
		// The platform clamps factors below 1 to nominal; rejecting them
		// here keeps the printed fault script honest.
		return ScenarioResult{}, fmt.Errorf("sdk: adaptive scenario slowdown %g must be >= 1", sc.Slowdown)
	}
	if (c != nil) != (sc.Kernel != "") || c != nil && c.Design == nil {
		return ScenarioResult{}, fmt.Errorf("sdk: adaptive scenario kernel %q needs its compilation (Compile)", sc.Kernel)
	}
	net, err := stackByName(sc.Net)
	if err != nil {
		return ScenarioResult{}, err
	}
	bs := ScenarioBitstream()
	workflow := func(i int) *runtime.Workflow { return AdaptiveWorkflow(i, bs.ID) }
	if c != nil {
		bs = c.Design.Bitstream
		workflow = func(i int) *runtime.Workflow {
			w := CompiledWorkflow(i, c)
			if adaptive {
				w.SetVariants(c.Variants())
			}
			return w
		}
	}
	s := New(DefaultCluster(sc.Nodes))
	if err := s.Registry.Put(bs); err != nil {
		return ScenarioResult{}, err
	}
	for i := 0; i < sc.FPGANodes; i++ {
		if _, err := s.Deploy(bs.ID, s.Cluster.Nodes[i].Name); err != nil {
			return ScenarioResult{}, err
		}
	}

	events := []runtime.EnvEvent{
		{Kind: runtime.EnvUnplug, Node: s.Cluster.Nodes[0].Name, Device: 0, At: sc.FaultAt},
		{Kind: runtime.EnvSlowdown, Node: s.Cluster.Nodes[sc.Nodes-1].Name, Factor: sc.Slowdown, At: sc.FaultAt},
	}
	eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{
		Policy: runtime.PolicyHEFT, Adaptive: adaptive, Events: events, Net: net,
	})
	tenants := max(sc.Tenants, 1)
	if err := eng.Start(); err != nil {
		return ScenarioResult{}, err
	}
	futs := make([]*runtime.Future, sc.Workflows)
	for i := range futs {
		// The workflow name is the engine's second tie-break key, so the
		// <tenant>/wf<n> names are part of the modelled result.
		tenant := fmt.Sprintf("tenant%02d", i%tenants)
		fut, err := eng.Submit(workflow(i), runtime.SubmitOptions{Name: fmt.Sprintf("%s/wf%d", tenant, i+1), Tenant: tenant})
		if err != nil {
			return ScenarioResult{}, err
		}
		if _, err := fut.Wait(); err != nil {
			return ScenarioResult{}, fmt.Errorf("sdk: scenario workflow %d: %w", i, err)
		}
		futs[i] = fut
	}
	eng.Shutdown()
	stats := TallyOf(futs)
	return ScenarioResult{Stats: stats, Makespan: stats.Makespan, Health: eng.Health()}, nil
}

// ScenarioBitstream returns the deployable artifact the adaptive scenario
// stages: a replicated, double-buffered Monte-Carlo kernel sized for an
// Alveo U55C. It is architecturally equivalent to what the compile flow
// produces for the PTDR kernel; synthesizing it directly keeps scenario
// setup out of the measured path.
func ScenarioBitstream() platform.Bitstream {
	return platform.Bitstream{
		ID: "bs-adapt-mc", Kernel: "ptdr-mc", Target: "alveo-u55c",
		Report: hls.Report{
			LatencyCycle: 1 << 19, II: 1, IterLatency: 12,
			Resources: hls.Resources{LUT: 60000, FF: 72000, DSP: 160, BRAM: 96},
			ClockMHz:  300,
		},
		Config: platform.SystemConfig{
			Replicas: 4, BusWidthBits: 512, Lanes: 4, PackedElements: 8,
			DoubleBuffered: true, PLMBytes: 1 << 18,
		},
		ElemBits: 64,
	}
}
