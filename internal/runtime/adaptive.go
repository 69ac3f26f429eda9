package runtime

import (
	"fmt"

	"everest/internal/autotuner"
	"everest/internal/platform"
)

// This file closes the autotuner→engine→virt loop (paper §VI): the engine
// reacts to the live environment instead of executing a static plan.
//
// Three layers cooperate. The platform monitors (platform.Monitor) learn
// each node's real load from observed/nominal latency ratios. A per-
// workflow autotuner.Tuner holds the expected latency of each
// implementation variant (cpu1 / cpu16 / fpga) and tracks it from
// completions, so selection follows the environment. And SR-IOV hot-plug
// events from the virtualization layer arrive through the engine control
// API (UnplugDevice / PlugDevice / SetNodeSlowdown): they flip platform
// attachment state immediately — executors fall back to software for FPGA
// work that can no longer reach its device — and tell the engine to
// invalidate queued FPGA placements on the affected node and degrade the
// fpga variant in every active tuner.
//
// The static engine pays the same faults but never consults any of this:
// the gap between the two under induced faults is what
// BenchmarkAdaptivePlacement measures.

// Implementation variants of one task (the paper's E7 knob values).
const (
	// VariantCPU1 is the single-core software fallback.
	VariantCPU1 = "cpu1"
	// VariantCPU16 is the parallel software implementation.
	VariantCPU16 = "cpu16"
	// VariantFPGA is the offloaded kernel.
	VariantFPGA = "fpga"
)

// cpu16Cores is the core count of the parallel software variant.
const cpu16Cores = 16

// designTime passed as `at` selects the design-time view of attachment
// (faults invisible — the static engine's placement estimates and the
// adaptive tuner's seeds).
const designTime = -1.0

// fpgaCostOn returns the kernel execution time of task t on a device of
// node n programmed with the task's bitstream and attached at modelled
// time `at`.
func fpgaCostOn(t *TaskSpec, n *platform.Node, at float64) (cost float64, devIdx int, ok bool) {
	if !t.NeedsFPGA || t.BitstreamID == "" {
		return 0, -1, false
	}
	wl := platform.Workload{BytesIn: t.InputBytes, BytesOut: t.OutputBytes, Batches: 4}
	for idx := range n.Devices {
		if tl, ok := n.KernelTime(idx, t.BitstreamID, wl, at); ok {
			return tl.Total, idx, true
		}
	}
	return 0, -1, false
}

// costLive returns what executing task t on node n costs for a requested
// variant ("" = as submitted, the static engine's path), priced at the
// task's modelled start time `at`: the load factor and device attachment
// in effect *then* apply, so environment events never act retroactively on
// modelled-earlier work regardless of wall-clock interleaving. It also
// returns the design-time cost of what actually ran (for load learning)
// and whether an FPGA placement fell back to software because its device
// was detached. The fallback model is uniform: a detached device degrades
// the task to its as-submitted software execution (TaskSpec.Cores),
// whichever path detects the detach.
func costLive(t *TaskSpec, n *platform.Node, variant string, at float64) (cost, nominal float64, onFPGA bool, devIdx int, fellBack bool) {
	bytes := t.TotalBytes()
	switch variant {
	case VariantFPGA:
		if c, idx, ok := fpgaCostOn(t, n, at); ok {
			return c, c, true, idx, false
		}
		// Device gone: the placement degrades to the software fallback.
		cost, nominal = softwareFallback(t, n, at)
		return cost, nominal, false, -1, true
	case VariantCPU16:
		nominal = n.RunCPU(t.Flops, bytes, cpu16Cores)
		return n.RunCPULiveAt(t.Flops, bytes, cpu16Cores, at), nominal, false, -1, false
	case VariantCPU1:
		nominal = n.RunCPU(t.Flops, bytes, 1)
		return n.RunCPULiveAt(t.Flops, bytes, 1, at), nominal, false, -1, false
	default: // as submitted
		if c, idx, ok := fpgaCostOn(t, n, at); ok {
			return c, c, true, idx, false
		}
		// Fell back iff the bitstream is programmed here but the device was
		// detached — the static engine keeps sending FPGA work into this.
		fellBack = bitstreamProgrammed(t, n)
		cost, nominal = softwareFallback(t, n, at)
		return cost, nominal, false, -1, fellBack
	}
}

// softwareFallback prices the as-submitted software execution a detached
// device degrades a task to, at modelled start `at` — the one fallback
// model shared by every path that detects a detach (costLive above and the
// executor's claim-time check).
func softwareFallback(t *TaskSpec, n *platform.Node, at float64) (cost, nominal float64) {
	bytes := t.TotalBytes()
	return n.RunCPULiveAt(t.Flops, bytes, t.Cores, at), n.RunCPU(t.Flops, bytes, t.Cores)
}

// bitstreamProgrammed reports whether any device of n carries the task's
// bitstream (attachment ignored; no timeline computation).
func bitstreamProgrammed(t *TaskSpec, n *platform.Node) bool {
	if !t.NeedsFPGA || t.BitstreamID == "" {
		return false
	}
	for idx := range n.Devices {
		if id, loaded := n.Programmed(idx); loaded && id == t.BitstreamID {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// environment control API

// EnvEventKind classifies scripted environment events.
type EnvEventKind int

// Scripted environment event kinds.
const (
	// EnvUnplug detaches a device from its modelled time onward.
	EnvUnplug EnvEventKind = iota
	// EnvPlug reattaches a device from its modelled time onward.
	EnvPlug
	// EnvSlowdown changes a node's CPU load factor from its modelled time.
	EnvSlowdown
)

// EnvEvent is one environment change scripted at engine start
// (EngineConfig.Events): the condition timeline is written before any task
// is placed, so executors price every task against it deterministically —
// the At-and-later modelled world pays the fault, earlier work does not —
// with no dependence on wall-clock event ordering. Use the engine control
// API (UnplugDevice / PlugDevice / SetNodeSlowdown) instead for events
// that must surprise a running engine.
type EnvEvent struct {
	Kind   EnvEventKind
	Node   string
	Device int     // EnvUnplug / EnvPlug
	Factor float64 // EnvSlowdown
	At     float64 // modelled time the change takes effect
}

// applyEnvEvents writes the scripted condition timelines (engine Start).
func (e *Engine) applyEnvEvents() {
	for _, ev := range e.cfg.Events {
		n := e.cluster.FindNode(ev.Node)
		if n == nil {
			continue
		}
		switch ev.Kind {
		case EnvUnplug:
			_, _ = n.SetDeviceOffline(ev.Device, true, ev.At)
		case EnvPlug:
			_, _ = n.SetDeviceOffline(ev.Device, false, ev.At)
		case EnvSlowdown:
			n.SetSlowdown(ev.Factor, ev.At)
		}
	}
}

// ctrlKind classifies environment events entering the event loop.
type ctrlKind int

const (
	ctrlUnplug ctrlKind = iota
	ctrlPlug
	ctrlSlow
)

// ctrlMsg is one environment event. Platform state is already flipped by
// the time the event loop sees it; the message drives the scheduling-side
// reaction (invalidation, tuner degradation, tracing).
type ctrlMsg struct {
	kind   ctrlKind
	node   string
	dev    int
	factor float64
	at     float64 // modelled time of the event
}

// sendCtrl enqueues an environment event for the event loop. It never
// blocks, whatever the queue depth and whichever goroutine calls it —
// including a fault-script trace callback running under the serve lock —
// and events are applied in enqueue order: before the next execution when
// the engine is serving, else at the start of the next Start or Submit,
// or by Shutdown.
func (e *Engine) sendCtrl(m ctrlMsg) {
	e.ctrlMu.Lock()
	e.ctrlQ = append(e.ctrlQ, m)
	e.ctrlMu.Unlock()
}

// takeCtrl drains the control queue in order.
func (e *Engine) takeCtrl() []ctrlMsg {
	e.ctrlMu.Lock()
	q := e.ctrlQ
	e.ctrlQ = nil
	e.ctrlMu.Unlock()
	return q
}

// applyCtrl reacts to every queued control event, in order.
func (e *Engine) applyCtrl(ds *dispatchState) {
	for _, m := range e.takeCtrl() {
		e.onCtrl(ds, m)
	}
}

// UnplugDevice detaches device dev of a node at modelled time `at` (the
// SR-IOV VF unplug of §VI-B surfaced as an engine event). Running and
// queued FPGA work on that node degrades to software; in adaptive mode the
// engine additionally pulls back queued FPGA placements, reschedules
// them, and degrades the fpga variant in every active workflow's tuner.
// Redundant calls — the device is already detached — change nothing, so
// e.g. a second VM's last-VF unplug cannot double-degrade the tuners.
func (e *Engine) UnplugDevice(node string, dev int, at float64) error {
	n := e.cluster.FindNode(node)
	if n == nil {
		return fmt.Errorf("runtime: unknown node %q", node)
	}
	changed, err := n.SetDeviceOffline(dev, true, at)
	if err != nil {
		return err
	}
	if changed {
		e.sendCtrl(ctrlMsg{kind: ctrlUnplug, node: node, dev: dev, at: at})
	}
	return nil
}

// PlugDevice reattaches device dev of a node at modelled time `at`,
// restoring the fpga variant's availability for active workflows.
// Redundant calls — the device was never detached — change nothing, so a
// VF plugged on an always-online device cannot wipe learned fpga drift.
func (e *Engine) PlugDevice(node string, dev int, at float64) error {
	n := e.cluster.FindNode(node)
	if n == nil {
		return fmt.Errorf("runtime: unknown node %q", node)
	}
	changed, err := n.SetDeviceOffline(dev, false, at)
	if err != nil {
		return err
	}
	if changed {
		e.sendCtrl(ctrlMsg{kind: ctrlPlug, node: node, dev: dev, at: at})
	}
	return nil
}

// SetNodeSlowdown changes a node's CPU load factor at modelled time `at`
// (1 restores nominal speed). Executors pay it immediately; the adaptive
// engine learns it from the latency ratios the monitors observe — the
// event itself only traces.
func (e *Engine) SetNodeSlowdown(node string, factor, at float64) error {
	n := e.cluster.FindNode(node)
	if n == nil {
		return fmt.Errorf("runtime: unknown node %q", node)
	}
	n.SetSlowdown(factor, at)
	e.sendCtrl(ctrlMsg{kind: ctrlSlow, node: node, factor: factor, at: at})
	return nil
}

// onCtrl is the event loop's reaction to one environment event.
func (e *Engine) onCtrl(ds *dispatchState, m ctrlMsg) {
	switch m.kind {
	case ctrlSlow:
		e.trace(Event{
			Kind: EventNodeSlowdown, Node: m.node, Time: m.at,
			Detail: fmt.Sprintf("factor=%.3g", m.factor),
		})
	case ctrlUnplug:
		e.trace(Event{
			Kind: EventDeviceUnplug, Node: m.node, Time: m.at,
			Detail: fmt.Sprintf("dev%d", m.dev),
		})
		if !e.cfg.Adaptive || !e.deviceProgrammed(m.node, m.dev) {
			// An unprogrammed device leaving changes no FPGA capacity:
			// nothing to invalidate or degrade.
			return
		}
		// Invalidate queued FPGA placements the node can no longer serve:
		// they would fall back to the slow software path, so pull them
		// back and re-place. Work another attached programmed device on
		// the same node can still run stays queued — as does work whose
		// modelled ready time precedes the detach: it may legitimately run
		// before the fault (non-retroactivity), and the claim-time
		// attachment check resolves the boundary either way.
		if ni, ok := e.nodeIdx[m.node]; ok {
			q, n := e.queues[ni], e.nodes[ni]
			stolen := q.steal(func(r execRequest) bool {
				if r.variant != VariantFPGA {
					return false
				}
				_, _, stillServable := fpgaCostOn(r.task, n, r.ready)
				return !stillServable
			})
			reclaimed := 0.0
			for _, r := range stolen {
				reclaimed += r.estDur
				r.wf.inflight--
				if r.wf.finished {
					e.maybeRecycle(r.wf)
					continue
				}
				r.wf.sched.Adapt.Reschedules++
				e.trace(Event{
					Kind: EventReschedule, Workflow: r.wf.name, Tenant: r.wf.tenant,
					Task: r.task.Name, Node: m.node, Time: m.at, Detail: "device-unplug",
				})
				e.pushReady(ds, r.wf, r.tidx, true, m.at)
			}
			if len(stolen) > 0 {
				// Stolen heads leave stale heap entries behind; rebuild
				// before the next inline execution (rare path).
				ds.heapDirty = true
			}
			// Give the node back the idle time its stolen placements had
			// reserved, so re-placement sees its true availability (floored
			// at the event time; completion reports re-raise it as needed).
			if reclaimed > 0 {
				free := ds.nodeFree[ni] - reclaimed
				if free < m.at {
					free = m.at
				}
				ds.nodeFree[ni] = free
				// The frontier may have shrunk with it; recompute (rare
				// path — only on device-unplug invalidation).
				ds.backlog = 0
				for _, f := range ds.nodeFree {
					if f > ds.backlog {
						ds.backlog = f
					}
				}
			}
		}
		// Degrade the fpga variant in every active tuner: fewer devices
		// remain, and none might. Observations refine this estimate later.
		online := e.onlineFPGADevices()
		for st := range ds.active {
			if st.tuner == nil {
				continue
			}
			if online == 0 {
				st.tuner.SetAvailable(VariantFPGA, false)
			} else {
				st.tuner.Degrade(VariantFPGA, 1+1/float64(online))
			}
		}
	case ctrlPlug:
		e.trace(Event{
			Kind: EventDevicePlug, Node: m.node, Time: m.at,
			Detail: fmt.Sprintf("dev%d", m.dev),
		})
		if !e.cfg.Adaptive || !e.deviceProgrammed(m.node, m.dev) {
			return
		}
		for st := range ds.active {
			if st.tuner != nil {
				st.tuner.SetAvailable(VariantFPGA, true)
				// Undo the unplug-time Degrade: a deselected variant gets
				// no observations, so the penalty would otherwise stick
				// forever. Observations re-learn any remaining degradation.
				st.tuner.ResetExpected(VariantFPGA)
			}
		}
	}
}

// deviceProgrammed reports whether the node's device carries a bitstream —
// only then does its attachment change FPGA capacity.
func (e *Engine) deviceProgrammed(node string, dev int) bool {
	n := e.cluster.FindNode(node)
	if n == nil {
		return false
	}
	_, ok := n.Programmed(dev)
	return ok
}

// onlineFPGADevices counts attached, programmed devices on alive nodes —
// the capacity the fpga variant can still reach cluster-wide.
func (e *Engine) onlineFPGADevices() int {
	online := 0
	for _, n := range e.cluster.Nodes {
		if _, failed := n.FailedAt(); failed {
			continue
		}
		for idx := range n.Devices {
			if _, ok := n.Programmed(idx); ok && n.DeviceOnline(idx) {
				online++
			}
		}
	}
	return online
}

// ---------------------------------------------------------------------------
// adaptive placement

// newWorkflowTuner seeds a variant tuner. Workflows carrying compiler-
// derived operating points (Workflow.SetVariants — the compiled path of
// the SDK loop) seed from those directly: every expected latency then
// traces back to the HLS schedule and the CPU cost model, never to the
// task specs. Otherwise the seeds come from the design-time cost model:
// the workflow's mean task cost per variant on a reference node, with the
// fpga variant present only when some task can actually offload somewhere.
func (e *Engine) newWorkflowTuner(st *wfState) *autotuner.Tuner {
	if len(st.variants) > 0 {
		if tn, err := autotuner.NewTuner(st.variants); err == nil {
			return tn
		}
		// A malformed set falls through to the engine-derived seeds.
	}
	if len(e.cluster.Nodes) == 0 {
		return nil // fall back to static placement (which reports the error)
	}
	ref := e.cluster.Nodes[0]
	var cpu1, cpu16, fpga float64
	nTasks, nFPGA := 0, 0
	// Iterate in submission (index) order: float accumulation order must
	// not vary run to run, or seeds (and placement ties) would either.
	for i := range st.specs {
		t := &st.specs[i]
		bytes := t.TotalBytes()
		cpu1 += ref.RunCPU(t.Flops, bytes, 1)
		cpu16 += ref.RunCPU(t.Flops, bytes, cpu16Cores)
		nTasks++
		for _, n := range e.cluster.Nodes {
			if c, _, ok := fpgaCostOn(t, n, designTime); ok {
				fpga += c
				nFPGA++
				break
			}
		}
	}
	if nTasks == 0 {
		return nil
	}
	ms := func(total float64, n int) float64 {
		v := total / float64(n) * 1000
		if v <= 0 {
			v = 1e-6
		}
		return v
	}
	var seeds [3]autotuner.Variant
	variants := append(seeds[:0],
		autotuner.Variant{Name: VariantCPU1, ExpectedMs: ms(cpu1, nTasks)},
		autotuner.Variant{Name: VariantCPU16, ExpectedMs: ms(cpu16, nTasks)})
	if nFPGA > 0 {
		variants = append(variants, autotuner.Variant{Name: VariantFPGA, ExpectedMs: ms(fpga, nFPGA)})
	}
	tn, err := autotuner.NewTuner(variants)
	if err != nil {
		return nil // fall back to static placement for this workflow
	}
	return tn
}

// variantsInto appends the implementation variants task may run as,
// filtered by the workflow tuner's availability mask, into the caller's
// scratch buffer (no per-placement allocation).
func (e *Engine) variantsInto(buf []string, st *wfState, t *TaskSpec) []string {
	for _, v := range [...]string{VariantCPU1, VariantCPU16} {
		if st.tuner.Available(v) {
			buf = append(buf, v)
		}
	}
	if t.NeedsFPGA && t.BitstreamID != "" && st.tuner.Available(VariantFPGA) {
		buf = append(buf, VariantFPGA)
	}
	if len(buf) == 0 {
		buf = append(buf, st.tuner.Best()) // graceful degradation
	}
	return buf
}

// Placement itself lives in engine.go place(): one selection loop serves
// both modes, with variantsInto above supplying the adaptive candidates.
// The per-(node, variant) estimate is inlined there: the fpga variant
// scales the per-node kernel time (priced at the modelled ready time — no
// advance knowledge of scripted faults) by the tuner's learned drift, and
// software variants scale the per-node nominal by the monitor's learned
// load — each live signal enters exactly once.
