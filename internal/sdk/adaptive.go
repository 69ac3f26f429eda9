package sdk

import (
	"fmt"

	"everest/internal/hls"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/virt"
)

// This file wires the adaptive loop's outer layers: scripted environment
// faults for experiments (Fault), the virt→engine bridge that turns SR-IOV
// hot-plug notifications into engine control events (AttachHypervisor),
// and the FPGA-leaning synthetic workload the adaptive-placement
// experiment schedules (AdaptiveWorkflow).

// Fault is one scripted environment event — the kinds are the engine's
// runtime.EnvEventKind values — triggered after AfterTasks task
// completions have been observed engine-wide. Completion-count triggers
// surprise a running engine under any scheduling interleaving; for the
// deterministic modelled-time form use ServerConfig.Events instead.
type Fault struct {
	Kind       runtime.EnvEventKind
	AfterTasks int // fire when this many tasks have completed
	Node       string
	Device     int     // EnvUnplug / EnvPlug
	Factor     float64 // EnvSlowdown (1 restores nominal speed)
}

// faultDriver wraps a trace callback with the fault script: it counts
// task completions and injects each fault once its trigger is reached.
// It runs inside the engine's event loop, under its serve lock; the engine
// control calls below only flip platform state and enqueue a control
// message (applied before the next execution), so they are safe (and
// non-blocking) from there.
func (srv *Server) faultDriver(faults []Fault, user func(runtime.Event)) func(runtime.Event) {
	pending := append([]Fault(nil), faults...)
	done := 0
	return func(ev runtime.Event) {
		if ev.Kind == runtime.EventTaskDone {
			done++
			kept := pending[:0]
			for _, f := range pending {
				if done < f.AfterTasks {
					kept = append(kept, f)
					continue
				}
				var err error
				switch f.Kind {
				case runtime.EnvUnplug:
					err = srv.eng.UnplugDevice(f.Node, f.Device, ev.Time)
				case runtime.EnvPlug:
					err = srv.eng.PlugDevice(f.Node, f.Device, ev.Time)
				case runtime.EnvSlowdown:
					err = srv.eng.SetNodeSlowdown(f.Node, f.Factor, ev.Time)
				}
				_ = err // a scripted fault on an unknown node is a no-op
			}
			pending = kept
		}
		if user != nil {
			user(ev)
		}
	}
}

// AttachHypervisor subscribes the server's engine to a hypervisor's
// hot-plug notifications, closing the virt side of the adaptation loop:
// when the last VF of a device is unplugged the accelerator disappears
// from the engine's world (placements invalidate, the fpga variant
// degrades), and the first replugged VF brings it back. clock, when set,
// supplies the modelled time stamped on the engine events. Attachment is
// derived from the hypervisor's VF table at attach time, before or after
// Start: a device whose guests hold no VF while guests exist is
// unreachable, exactly as if its last VF had just been unplugged.
func (srv *Server) AttachHypervisor(h *virt.Hypervisor, clock func() float64) {
	now := func() float64 {
		if clock == nil {
			return 0
		}
		return clock()
	}
	h.Subscribe(func(ev virt.HotplugEvent) {
		switch {
		case ev.Kind == virt.VFUnplugged && ev.AssignedVFs == 0:
			_ = srv.eng.UnplugDevice(ev.Node, ev.Device, now())
		case ev.Kind == virt.VFPlugged && ev.AssignedVFs == 1:
			_ = srv.eng.PlugDevice(ev.Node, ev.Device, now())
		}
	})
	st := h.Query()
	if len(st.VMs) == 0 {
		return // no guests: host-side access, devices stay attached
	}
	for dev := 0; dev < len(st.AssignedVFs); dev++ { // device order: a deterministic trace
		if st.AssignedVFs[dev] == 0 {
			_ = srv.eng.UnplugDevice(st.Node, dev, now())
		}
	}
}

// AdaptiveWorkflow returns a deterministic FPGA-leaning workflow for the
// adaptive-placement experiment: a prep stage feeding two offloadable
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

// AdaptiveScenario bundles one run of the adaptive-placement experiment:
// the same workflows, faults, and cluster served twice — statically and
// adaptively — so the two makespans are directly comparable.
type AdaptiveScenario struct {
	Workflows int
	Nodes     int // compute nodes (DefaultCluster adds cloudfpga0)
	FPGANodes int // nodes the bitstream is staged on (prefix of the cluster)
	Tenants   int
	Slowdown  float64 // load factor hitting the last compute node
	FaultAt   float64 // modelled time both faults take effect
}

// DefaultAdaptiveScenario is the E-adapt configuration: an unplug of one
// of two accelerators plus a 6x slowdown of one software node, both
// effective mid-run in modelled time.
func DefaultAdaptiveScenario() AdaptiveScenario {
	return AdaptiveScenario{Workflows: 8, Nodes: 4, FPGANodes: 2, Tenants: 2, Slowdown: 6, FaultAt: 0.1}
}

// ScenarioResult is one serving run of the scenario.
type ScenarioResult struct {
	Stats    ServerStats
	Makespan float64
	Health   []platform.NodeHealth // monitor snapshot after the run
}

// Run serves the scenario's workflows once. adaptive selects the engine
// mode; everything else — cluster shape, staged bitstreams, workflows, and
// the fault script — is identical across modes, so the makespan ratio
// isolates the value of adaptation. The faults are scripted as modelled-
// time condition timelines (engine Events): from FaultAt onward the first
// FPGA node's accelerator is detached and the last compute node is slowed,
// and execution prices each task by the state at its own modelled start —
// deterministic under any goroutine interleaving, which is what lets CI
// gate the resulting speedup.
func (sc AdaptiveScenario) Run(adaptive bool) (ScenarioResult, error) {
	if sc.Workflows < 1 || sc.Nodes < 2 || sc.FPGANodes < 1 || sc.FPGANodes > sc.Nodes {
		return ScenarioResult{}, fmt.Errorf("sdk: bad adaptive scenario %+v", sc)
	}
	if sc.Slowdown < 1 {
		// The platform clamps factors below 1 to nominal; rejecting them
		// here keeps the printed fault script honest.
		return ScenarioResult{}, fmt.Errorf("sdk: adaptive scenario slowdown %g must be >= 1", sc.Slowdown)
	}
	s := New(DefaultCluster(sc.Nodes))
	bs := ScenarioBitstream()
	if err := s.Registry.Put(bs); err != nil {
		return ScenarioResult{}, err
	}
	bsID := bs.ID
	for i := 0; i < sc.FPGANodes; i++ {
		if _, err := s.Deploy(bsID, s.Cluster.Nodes[i].Name); err != nil {
			return ScenarioResult{}, err
		}
	}

	events := []runtime.EnvEvent{
		{Kind: runtime.EnvUnplug, Node: s.Cluster.Nodes[0].Name, Device: 0, At: sc.FaultAt},
		{Kind: runtime.EnvSlowdown, Node: s.Cluster.Nodes[sc.Nodes-1].Name, Factor: sc.Slowdown, At: sc.FaultAt},
	}
	srv := s.NewServer(ServerConfig{Policy: runtime.PolicyHEFT, Adaptive: adaptive, Events: events})
	tenants := sc.Tenants
	if tenants < 1 {
		tenants = 1
	}
	if err := srv.Start(); err != nil {
		return ScenarioResult{}, err
	}
	// Workflows are served one at a time: node clocks and placements then
	// advance in a single deterministic modelled sequence, so the measured
	// makespan is identical under any goroutine interleaving — the
	// adaptation benchmark isolates adaptation, not multiplexing (which
	// BenchmarkConcurrentWorkflows measures, with interleaving variance).
	for i := 0; i < sc.Workflows; i++ {
		sub, err := srv.Submit(fmt.Sprintf("tenant%02d", i%tenants), "", AdaptiveWorkflow(i, bsID))
		if err != nil {
			return ScenarioResult{}, err
		}
		if _, err := sub.Wait(); err != nil {
			return ScenarioResult{}, fmt.Errorf("sdk: scenario workflow %d: %w", i, err)
		}
	}
	stats := srv.Shutdown()
	return ScenarioResult{
		Stats: stats, Makespan: stats.Makespan,
		Health: srv.Monitor().Snapshot(),
	}, nil
}

// AdaptWin serves the scenario statically and then adaptively and returns
// both runs; everything but the engine mode is identical, so the makespan
// ratio is the value of adaptation.
func (sc AdaptiveScenario) AdaptWin() (static, adaptive ScenarioResult, err error) {
	if static, err = sc.Run(false); err == nil {
		adaptive, err = sc.Run(true)
	}
	return static, adaptive, err
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
