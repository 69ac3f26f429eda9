package runtime

import (
	"fmt"
	"math"

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
// completions, so selection follows the environment. And environment
// events (EnvEvent: an SR-IOV VF unplug or plug from the virtualization
// layer, a node slowdown) reach the nodes by one writer, writeEvent: Start
// writes the script (EngineConfig.Events), and Apply writes one event at
// call time under the serve lock, between serves. Either way the event is
// a modelled-time condition timeline: executors price each task by the
// state at its own start and fall back to software for FPGA work that can
// no longer reach its device, and adaptive placement prices the fpga
// variant against attachment at the task's ready time. An event written
// by Apply finds the engine idle, so no queued placement is ever pulled
// back and no active tuner needs telling.
//
// The static engine pays the same faults but never consults any of this:
// the gap between the two under induced faults is what
// BenchmarkAdaptivePlacement measures.

// Variant is one implementation a task may run as: the engine's closed set
// of operating points (the paper's E7 knob values), one byte wide. The
// tuner's vocabulary stays the names String returns; seedTuner resolves
// them to tuner points once per workflow, and a seeded name outside the
// set is never a placement candidate.
type Variant uint8

// Implementation variants of one task.
const (
	// VariantAsSubmitted runs the task as its spec requests: the static
	// engine's only variant, and the adaptive engine's when the tuner
	// knows none the task can run as.
	VariantAsSubmitted Variant = iota
	// VariantCPU1 is the single-core software fallback.
	VariantCPU1
	// VariantCPU16 is the parallel software implementation.
	VariantCPU16
	// VariantFPGA is the offloaded kernel.
	VariantFPGA
	numVariants
)

var variantNames = [numVariants]string{"", "cpu1", "cpu16", "fpga"}

// String returns the variant's tuner name: "cpu1", "cpu16" or "fpga", and
// "" as submitted.
func (v Variant) String() string {
	if v < numVariants {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", v)
}

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
// variant (as submitted on the static engine's path), priced at the
// task's modelled start time `at`: the load factor and device attachment
// in effect *then* apply, so environment events never act retroactively on
// modelled-earlier work regardless of wall-clock interleaving. It also
// returns the design-time cost of what actually ran (for load learning)
// and whether an FPGA placement fell back to software because its device
// was detached. The fallback model is uniform: a detached device degrades
// the task to its as-submitted software execution (TaskSpec.Cores),
// whichever path detects the detach.
func costLive(t *TaskSpec, n *platform.Node, variant Variant, at float64) (cost, nominal float64, onFPGA bool, devIdx int, fellBack bool) {
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
// environment events

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

// EnvEvent is one environment change: scripted at engine start
// (EngineConfig.Events) or applied between serves (Engine.Apply). Either
// way its condition timeline is written before any task placed after it,
// so executors price every such task against it deterministically — the
// At-and-later modelled world pays the fault, earlier work does not — with
// no dependence on wall-clock event ordering.
type EnvEvent struct {
	Kind   EnvEventKind
	Node   string
	Device int     // EnvUnplug / EnvPlug
	Factor float64 // EnvSlowdown
	At     float64 // modelled time the change takes effect
}

// checkStart refuses an empty cluster, a scripted failure with a
// non-finite time and a scripted event checkEvent refuses (engine Start).
// Entries naming unknown nodes are not checked: they are ignored.
func (e *Engine) checkStart() error {
	if len(e.cluster.Nodes) == 0 {
		return fmt.Errorf("runtime: engine needs at least one node")
	}
	for _, f := range e.cfg.Failures {
		if e.cluster.FindNode(f.Node) != nil && !finite(f.AtTime) {
			return fmt.Errorf("runtime: scripted failure of %s at %g", f.Node, f.AtTime)
		}
	}
	for _, ev := range e.cfg.Events {
		if n := e.cluster.FindNode(ev.Node); n != nil {
			if err := checkEvent(n, ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkEvent refuses an event on node n of an unknown kind, with a
// non-finite time or factor, or plugging or unplugging a device n does not
// have, scripted or applied.
func checkEvent(n *platform.Node, ev EnvEvent) error {
	switch {
	case ev.Kind < EnvUnplug || ev.Kind > EnvSlowdown:
		return fmt.Errorf("runtime: event on %s of unknown kind %d", n.Name, ev.Kind)
	case ev.Kind != EnvSlowdown && (ev.Device < 0 || ev.Device >= len(n.Devices)):
		return fmt.Errorf("runtime: node %s has no device %d", n.Name, ev.Device)
	case !finite(ev.At) || !finite(ev.Factor):
		return fmt.Errorf("runtime: event on %s at %g (factor %g)", n.Name, ev.At, ev.Factor)
	}
	return nil
}

// writeEvent writes one checked event to its node n and reports whether it
// changed anything: a plug or unplug that leaves the attachment as it was
// does not.
func writeEvent(n *platform.Node, ev EnvEvent) bool {
	if ev.Kind == EnvSlowdown {
		n.SetSlowdown(ev.Factor, ev.At)
		return true
	}
	// No error: checkEvent checked the device index.
	changed, _ := n.SetDeviceOffline(ev.Device, ev.Kind == EnvUnplug, ev.At)
	return changed
}

// applyScript writes the scripted failures and condition timelines
// (engine Start).
func (e *Engine) applyScript() {
	for _, f := range e.cfg.Failures {
		if n := e.cluster.FindNode(f.Node); n != nil {
			n.Fail(f.AtTime)
		}
	}
	for _, ev := range e.cfg.Events {
		if n := e.cluster.FindNode(ev.Node); n != nil {
			writeEvent(n, ev)
		}
	}
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Apply writes one environment event to its node now, at the modelled time
// ev.At, and traces it if it changed anything: a plug of an attached
// device or an unplug of a detached one is a silent no-op. It takes the
// serve lock, so it runs between serves, when the engine is idle: the
// event reaches every task placed after Apply returns and no task placed
// before. Before Start it writes ahead of the script Start writes. It
// refuses an unknown node or an event checkStart would refuse, and returns
// ErrShutDown after Shutdown, touching nothing. A trace callback must not
// call it. Node failures are scripted only (EngineConfig.Failures).
func (e *Engine) Apply(ev EnvEvent) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.Check(Control); err != nil {
		return err
	}
	n := e.cluster.FindNode(ev.Node)
	if n == nil {
		return fmt.Errorf("runtime: unknown node %q", ev.Node)
	}
	if err := checkEvent(n, ev); err != nil {
		return err
	}
	if !writeEvent(n, ev) {
		return nil
	}
	tr := Event{Kind: EventDeviceUnplug, Node: n.Name, Time: ev.At, Detail: fmt.Sprintf("dev%d", ev.Device)}
	switch ev.Kind {
	case EnvPlug:
		tr.Kind = EventDevicePlug
	case EnvSlowdown:
		tr.Kind, tr.Detail = EventNodeSlowdown, fmt.Sprintf("factor=%.3g", ev.Factor)
	}
	e.trace(tr)
	return nil
}

// ---------------------------------------------------------------------------
// adaptive placement

// seedTuner reseeds the record's variant tuner for its workflow and
// reports whether the tuner holds seeds; when it does not, the workflow is
// placed statically. Workflows carrying compiler-derived operating points
// (Workflow.SetVariants — the compiled path of the SDK loop) seed from
// those directly: every expected latency then traces back to the HLS
// schedule and the CPU cost model, never to the task specs. Otherwise the
// seeds come from the design-time cost model: the workflow's mean task
// cost per variant on a reference node, with the fpga variant present only
// when some task can actually offload somewhere.
func (e *Engine) seedTuner(st *wfState) bool {
	if len(st.variants) > 0 && st.tuner.Reset(st.variants) == nil {
		st.resolvePoints()
		return true
	}
	// A malformed set falls through to the engine-derived seeds.
	if len(e.cluster.Nodes) == 0 {
		return false // fall back to static placement (which reports the error)
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
		return false
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
		autotuner.Variant{Name: VariantCPU1.String(), ExpectedMs: ms(cpu1, nTasks)},
		autotuner.Variant{Name: VariantCPU16.String(), ExpectedMs: ms(cpu16, nTasks)})
	if nFPGA > 0 {
		variants = append(variants, autotuner.Variant{Name: VariantFPGA.String(), ExpectedMs: ms(fpga, nFPGA)})
	}
	// A refused set leaves the workflow to static placement.
	if st.tuner.Reset(variants) != nil {
		return false
	}
	st.resolvePoints()
	return true
}

// resolvePoints records where the freshly seeded tuner keeps each variant's
// point, so placement and completion look a variant up by position, never
// by name.
func (st *wfState) resolvePoints() {
	for v := range numVariants {
		i, ok := st.tuner.Index(v.String())
		if !ok {
			i = -1
		}
		st.points[v] = i
	}
}

// known reports whether the workflow's tuner holds variant v.
func (st *wfState) known(v Variant) bool { return st.points[v] >= 0 }

// variantsInto appends the implementation variants task may run as, among
// those the workflow tuner knows, into the caller's scratch buffer (no
// per-placement allocation). A task that can run as none of them runs as
// submitted.
func (e *Engine) variantsInto(buf []Variant, st *wfState, t *TaskSpec) []Variant {
	for _, v := range [...]Variant{VariantCPU1, VariantCPU16} {
		if st.known(v) {
			buf = append(buf, v)
		}
	}
	if t.NeedsFPGA && t.BitstreamID != "" && st.known(VariantFPGA) {
		buf = append(buf, VariantFPGA)
	}
	if len(buf) == 0 {
		buf = append(buf, VariantAsSubmitted)
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
