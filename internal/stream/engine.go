package stream

import (
	"fmt"
	"reflect"

	"everest/internal/platform"
	"everest/internal/runtime"
)

// window is one closed batch of events moving through the stage chain. The
// arrival times are kept so end-to-end latency is recorded per event when
// the window clears the final stage. Windows are recycled through a
// freelist, so the steady-state per-event path allocates nothing.
type window struct {
	arrivals []float64
}

// devState is one accelerator's kernel residency bookkeeping. With partial
// reconfiguration the device exposes Regions() slots, each holding one
// kernel, evicted LRU; without it the whole device holds a single image
// and every kernel alternation pays a full reprogram. The platform Node is
// kept truthful throughout (ProgramRegion/Program), so the busy-window
// serialization (ClaimDeviceAt) and the residency model share one device.
type devState struct {
	node     *platform.Node
	dev      int
	d        *platform.Device
	name     string   // "node00/dev0"
	partial  bool     // per-region swapping enabled and every kernel fits
	resident []string // region slot -> resident kernel id ("" = empty)
	lru      []int64  // region slot -> last-touch sequence
	seq      int64
	kernels  int // distinct kernels assigned here

	everLoaded  map[string]bool // kernels that have paid their cold load
	swaps       int64           // reloads beyond each kernel's first (churn)
	swapSeconds float64
}

// stageRun is one pipeline stage's serving state: a bounded input queue of
// windows and a single-server executor (one window in service at a time).
type stageRun struct {
	spec *StageSpec
	node *platform.Node // software host (pricing + FPGA fallback)
	ds   *devState      // accelerator residency state; nil = software stage

	queue []*window // ring buffer, len = queueWindows
	qHead int
	qLen  int

	busy    bool
	cur     *window // window in service
	blocked bool    // Block policy: finished window refused downstream
	held    *window // the refused window, delivered when space frees

	stats StageStats
}

// pipeline is one stream's runtime state.
type pipeline struct {
	spec   PipelineSpec
	idx    int
	stages []stageRun

	open *window // filling window (nil between windows)
	next float64 // drawn first arrival of the next window (age closes)

	// ingress is the unbounded overflow buffer of the Block policy: windows
	// that find stage 0's bounded queue full wait here instead of being
	// dropped. FIFO via a head index; growth allocates, but only under
	// overload — never in steady state.
	ingress []*window
	ingHead int

	generated int
	done      int64
	shed      int64
	windows   int64
	h         hist
}

// Engine runs a set of streaming pipelines over one cluster as a
// single-threaded discrete-event simulation on the TimeHeap event core.
// Engines are single-shot: New, then Run once.
type Engine struct {
	cfg    Config
	pipes  []*pipeline
	devs   []*devState
	heap   *runtime.TimeHeap
	stride int // heap Seq slots per pipeline: arrival, flush, per-stage done

	pool      []*window // window freelist
	winEvents int       // largest WindowEvents across pipelines (freelist cap)
	makespan  float64
	ran       bool
}

// queueWindows bounds each inter-stage queue, in windows.
const queueWindows = 4

// Event slot offsets within a pipeline's Seq stride.
const (
	slotArrival = 0
	slotFlush   = 1
	slotDone    = 2 // + stage index
)

// New builds a streaming engine: validates the pipeline specs, assigns
// every distinct kernel bitstream to a device (round-robin over the
// cluster's accelerators, first fit), and sizes the queues, heap, and
// window freelist so the steady-state event loop never allocates.
func New(cfg Config, specs []PipelineSpec) (*Engine, error) {
	if cfg.Cluster == nil || len(cfg.Cluster.Nodes) == 0 {
		return nil, fmt.Errorf("stream: config needs a cluster")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("stream: no pipelines")
	}
	e := &Engine{cfg: cfg}

	// Enumerate the cluster's accelerators in deterministic node/device
	// order.
	var devList []*devState
	for _, n := range cfg.Cluster.Nodes {
		for idx := range n.Devices {
			devList = append(devList, &devState{
				node: n, dev: idx, d: n.Devices[idx],
				name:       fmt.Sprintf("%s/dev%d", n.Name, idx),
				everLoaded: make(map[string]bool),
			})
		}
	}

	maxStages := 0
	assigned := make(map[string]*devState)
	sources := make(map[Arrivals]string)
	cursor := 0
	for i := range specs {
		p := &specs[i]
		if err := p.validate(i); err != nil {
			return nil, err
		}
		// A window's gaps are drawn when it opens, in the pipeline's own
		// order, so a process shared across pipelines would yield a
		// different event train than drawing in global event order.
		if reflect.TypeOf(p.Arrivals).Comparable() {
			if prev, ok := sources[p.Arrivals]; ok {
				return nil, fmt.Errorf("stream: pipelines %s and %s share one arrival process", prev, p.Name)
			}
			sources[p.Arrivals] = p.Name
		}
		if len(p.Stages) > maxStages {
			maxStages = len(p.Stages)
		}
		if p.WindowEvents > e.winEvents {
			e.winEvents = p.WindowEvents
		}
		pl := &pipeline{spec: *p, idx: i}
		host := cfg.Cluster.Nodes[i%len(cfg.Cluster.Nodes)]
		pl.stages = make([]stageRun, len(p.Stages))
		for k := range p.Stages {
			st := &p.Stages[k]
			sr := &pl.stages[k]
			sr.spec = st
			sr.node = host
			sr.queue = make([]*window, queueWindows)
			sr.stats.Name = st.Name
			if !st.fpga() {
				continue
			}
			ds, ok := assigned[st.Bitstream.ID]
			if !ok {
				if len(devList) == 0 {
					return nil, fmt.Errorf("stream: stage %s/%s needs an FPGA but the cluster has none", p.Name, st.Name)
				}
				need := st.Bitstream.TotalResources()
				for probe := 0; probe < len(devList); probe++ {
					cand := devList[(cursor+probe)%len(devList)]
					if need.FitsIn(cand.d.Capacity) {
						ds = cand
						cursor = (cursor + probe + 1) % len(devList)
						break
					}
				}
				if ds == nil {
					return nil, fmt.Errorf("stream: bitstream %q fits no device in the cluster", st.Bitstream.ID)
				}
				assigned[st.Bitstream.ID] = ds
				ds.kernels++
			}
			sr.ds = ds
		}
		e.pipes = append(e.pipes, pl)
	}

	// Decide each device's swap granularity: per-region only when the
	// floorplan has regions and every kernel assigned to the device fits
	// one — mixing region and whole-device images on one card is not
	// modelled.
	for _, ds := range devList {
		if ds.kernels == 0 {
			continue
		}
		ds.partial = cfg.PartialReconfig && ds.d.Regions() > 1
		e.devs = append(e.devs, ds)
	}
	if cfg.PartialReconfig {
		for id, ds := range assigned {
			if !ds.partial {
				continue
			}
			for i := range specs {
				for k := range specs[i].Stages {
					st := &specs[i].Stages[k]
					if st.Bitstream.ID == id && !st.Bitstream.TotalResources().FitsIn(ds.d.RegionCapacity()) {
						ds.partial = false
					}
				}
			}
		}
	}
	for _, ds := range e.devs {
		slots := 1
		if ds.partial {
			slots = ds.d.Regions()
		}
		ds.resident = make([]string, slots)
		ds.lru = make([]int64, slots)
	}

	e.stride = maxStages + slotDone
	e.heap = runtime.NewTimeHeap(len(e.pipes) * (e.stride + 2))
	e.pool = make([]*window, 0, len(e.pipes)*(maxStages*(queueWindows+2)+2))
	return e, nil
}

// Run generates every pipeline's event train and drains the system,
// returning the aggregate statistics. Deterministic: the heap pops in a
// total (time, pipeline, slot) order and nothing else sequences work.
func (e *Engine) Run() (Stats, error) {
	if e.ran {
		return Stats{}, fmt.Errorf("stream: engine already ran (single-shot)")
	}
	e.ran = true
	for _, p := range e.pipes {
		e.heap.Push(runtime.TimeItem{Time: p.spec.Arrivals.Next(), Seq: p.idx*e.stride + slotArrival})
	}
	for e.heap.Len() > 0 {
		e.step()
	}
	return e.stats(), nil
}

// step processes the next modelled-time event. This is the hot path the
// zero-alloc budget pins. An arrival-slot entry opens a window when none
// is open and is the open window's close otherwise.
func (e *Engine) step() {
	it := e.heap.PopMin()
	p := e.pipes[it.Seq/e.stride]
	slot := it.Seq % e.stride
	switch slot {
	case slotArrival:
		if p.open == nil {
			e.admit(p, it.Time)
		} else {
			e.sourceClose(p, it.Time)
		}
	case slotFlush:
		e.flushTimer(p, it.Time)
	default:
		e.stageDone(p, slot-slotDone, it.Time)
	}
}

// admit opens a window at the source event arriving at t and admits the
// whole window in this one step: it draws gaps until the window holds
// WindowEvents, the source reaches Events, or the next arrival lands
// strictly after the age deadline (one exactly on it is still admitted:
// the arrival slot sorts before the flush slot). Until the window closes
// its arrivals touch only this pipeline, so only the close is scheduled,
// at the (time, slot) key an event-by-event loop would close it at: the
// last admitted arrival for a size or exhaustion close, the deadline for
// an age close (which keeps the drawn first arrival of the next window in
// p.next). A one-event window closes here.
func (e *Engine) admit(p *pipeline, t float64) {
	w := e.getWindow()
	p.open = w
	age := p.spec.WindowSeconds > 0
	flushAt := t + p.spec.WindowSeconds
	for {
		w.arrivals = append(w.arrivals, t)
		p.generated++
		if len(w.arrivals) >= p.spec.WindowEvents || p.generated >= p.spec.Events {
			break
		}
		next := t + p.spec.Arrivals.Next()
		if age && next > flushAt {
			p.next = next
			e.heap.Push(runtime.TimeItem{Time: flushAt, Seq: p.idx*e.stride + slotFlush})
			return
		}
		t = next
	}
	if len(w.arrivals) == 1 {
		e.sourceClose(p, t)
		return
	}
	e.heap.Push(runtime.TimeItem{Time: t, Seq: p.idx*e.stride + slotArrival})
}

// sourceClose closes the open window at its last admitted arrival (on
// size or source exhaustion) and draws the next window's first arrival.
func (e *Engine) sourceClose(p *pipeline, t float64) {
	e.closeWindow(p, t)
	if p.generated < p.spec.Events {
		e.heap.Push(runtime.TimeItem{Time: t + p.spec.Arrivals.Next(), Seq: p.idx*e.stride + slotArrival})
	}
}

// flushTimer fires the open window's age deadline and schedules the next
// window's first arrival, drawn when the window was admitted. A flush
// entry is only pushed for a window that closes by age, so none is stale.
func (e *Engine) flushTimer(p *pipeline, t float64) {
	e.closeWindow(p, t)
	e.heap.Push(runtime.TimeItem{Time: p.next, Seq: p.idx*e.stride + slotArrival})
}

// closeWindow seals the open window and offers it to the stage chain under
// the pipeline's overload policy.
func (e *Engine) closeWindow(p *pipeline, t float64) {
	w := p.open
	p.open = nil
	if e.cfg.Trace != nil {
		e.cfg.Trace(Event{Kind: EventWindowClose, Pipeline: p.spec.Name,
			Time: t, Events: len(w.arrivals)})
	}
	s0 := &p.stages[0]
	if p.spec.Policy == Block {
		// Backpressure: overload waits in the unbounded ingress buffer; the
		// buffer drains FIFO as stage 0 frees queue slots, so a new window
		// must queue behind earlier overflow.
		if len(p.ingress)-p.ingHead > 0 || s0.qLen == queueWindows {
			p.ingress = append(p.ingress, w)
			return
		}
		e.push(p, 0, w)
		e.tryStart(p, 0, t)
		return
	}
	if s0.qLen == queueWindows {
		e.shedWindow(p, 0, w, t)
		return
	}
	e.push(p, 0, w)
	e.tryStart(p, 0, t)
}

// push appends a window to stage k's bounded ring (caller checked space).
func (e *Engine) push(p *pipeline, k int, w *window) {
	si := &p.stages[k]
	si.queue[(si.qHead+si.qLen)%queueWindows] = w
	si.qLen++
}

// tryStart begins service on stage k's queue head if the stage is free.
func (e *Engine) tryStart(p *pipeline, k int, t float64) {
	si := &p.stages[k]
	if si.busy || si.blocked || si.qLen == 0 {
		return
	}
	w := e.pop(p, k, t)
	e.startService(p, k, w, t)
}

// pop removes stage k's queue head and refills the freed slot from
// upstream: the ingress buffer (k = 0) or a blocked upstream stage whose
// held window can now be delivered — unblocking cascades toward the
// source, which is how backpressure releases.
func (e *Engine) pop(p *pipeline, k int, t float64) *window {
	si := &p.stages[k]
	w := si.queue[si.qHead]
	si.queue[si.qHead] = nil
	si.qHead = (si.qHead + 1) % queueWindows
	si.qLen--
	if k == 0 {
		if p.ingHead < len(p.ingress) {
			nw := p.ingress[p.ingHead]
			p.ingress[p.ingHead] = nil
			p.ingHead++
			if p.ingHead == len(p.ingress) {
				p.ingress = p.ingress[:0]
				p.ingHead = 0
			}
			e.push(p, 0, nw)
		}
	} else if up := &p.stages[k-1]; up.blocked {
		e.push(p, k, up.held)
		up.held = nil
		up.blocked = false
		e.tryStart(p, k-1, t)
	}
	return w
}

// startService prices a window on stage k's executor and schedules its
// completion. Accelerated stages first make their kernel resident (free if
// it already is; a region swap or whole-device reprogram otherwise), then
// claim the device — claims serialize, so stages sharing a card queue
// behind each other in deterministic order.
func (e *Engine) startService(p *pipeline, k int, w *window, t float64) {
	si := &p.stages[k]
	si.busy = true
	si.cur = w
	n := len(w.arrivals)
	var end float64
	if si.ds != nil {
		swap := e.ensureResident(p, si, t, n)
		dur := swap + float64(n)*si.spec.FPGASecondsPerEvent
		_, claimEnd, ok, err := si.ds.node.ClaimDeviceAt(si.ds.dev, t, dur)
		if err == nil && ok {
			end = claimEnd
		} else {
			// Device detached: degrade this window to software.
			end = t + si.node.RunCPU(si.spec.FlopsPerEvent*float64(n),
				si.spec.BytesPerEvent*int64(n), si.spec.Cores)
		}
	} else {
		end = t + si.node.RunCPU(si.spec.FlopsPerEvent*float64(n),
			si.spec.BytesPerEvent*int64(n), si.spec.Cores)
	}
	si.stats.Windows++
	si.stats.BusySeconds += end - t
	e.heap.Push(runtime.TimeItem{Time: end, Seq: p.idx*e.stride + slotDone + k})
}

// ensureResident makes the stage's kernel resident on its device and
// returns the modelled swap stall (0 on residency hit). Partial devices
// swap one LRU region (region-sized image transfer + region
// reconfiguration); whole-device mode pays the full image and
// reconfiguration on every kernel alternation — the cost the PR floorplan
// exists to avoid.
func (e *Engine) ensureResident(p *pipeline, si *stageRun, t float64, events int) float64 {
	ds := si.ds
	id := si.spec.Bitstream.ID
	slot := -1
	for r, res := range ds.resident {
		if res == id {
			ds.seq++
			ds.lru[r] = ds.seq
			return 0
		}
		if slot < 0 && res == "" {
			slot = r
		}
	}
	if slot < 0 {
		slot = 0
		for r := 1; r < len(ds.resident); r++ {
			if ds.lru[r] < ds.lru[slot] {
				slot = r
			}
		}
	}
	var dt float64
	var err error
	var img int64
	if ds.partial {
		if ds.resident[slot] != "" {
			_, _ = ds.node.UnprogramRegion(ds.dev, slot)
		}
		dt, err = ds.node.ProgramRegion(ds.dev, slot, si.spec.Bitstream)
		img = ds.d.RegionConfigBytes()
	} else {
		dt, err = ds.node.Program(ds.dev, si.spec.Bitstream)
		img = ds.d.ConfigBytes()
	}
	if err != nil {
		// Should be unreachable (fit was checked at New); charge nothing
		// rather than corrupt the timeline.
		return 0
	}
	cost := e.cfg.Cluster.Network.TransferSeconds(img) + dt
	ds.resident[slot] = id
	ds.seq++
	ds.lru[slot] = ds.seq
	if ds.everLoaded[id] {
		// A reload of a kernel this device already paid for: churn the PR
		// floorplan would have kept resident.
		ds.swaps++
		ds.swapSeconds += cost
	}
	ds.everLoaded[id] = true
	if e.cfg.Trace != nil {
		e.cfg.Trace(Event{Kind: EventSwap, Pipeline: p.spec.Name, Stage: si.spec.Name,
			Device: ds.name, Bitstream: id, Time: t, Events: events})
	}
	return cost
}

// stageDone completes stage k's window in service: the final stage records
// per-event latencies, inner stages hand off downstream under the overload
// policy, and the stage pulls its next window unless backpressure blocked
// it.
func (e *Engine) stageDone(p *pipeline, k int, t float64) {
	si := &p.stages[k]
	w := si.cur
	si.cur = nil
	si.busy = false
	if k == len(p.stages)-1 {
		e.finishWindow(p, w, t)
	} else {
		ni := &p.stages[k+1]
		if ni.qLen == queueWindows {
			if p.spec.Policy == Shed {
				e.shedWindow(p, k+1, w, t)
			} else {
				si.held = w
				si.blocked = true
			}
		} else {
			e.push(p, k+1, w)
			e.tryStart(p, k+1, t)
		}
	}
	if !si.blocked {
		e.tryStart(p, k, t)
	}
}

// finishWindow records the end-to-end latency of every event in a window
// clearing the final stage.
func (e *Engine) finishWindow(p *pipeline, w *window, t float64) {
	for _, a := range w.arrivals {
		p.h.add(t - a)
	}
	p.done += int64(len(w.arrivals))
	p.windows++
	if t > e.makespan {
		e.makespan = t
	}
	if e.cfg.Trace != nil {
		e.cfg.Trace(Event{Kind: EventWindowDone, Pipeline: p.spec.Name,
			Time: t, Events: len(w.arrivals)})
	}
	e.putWindow(w)
}

// shedWindow drops a window at stage k's full input queue (Shed policy).
func (e *Engine) shedWindow(p *pipeline, k int, w *window, t float64) {
	n := int64(len(w.arrivals))
	p.shed += n
	si := &p.stages[k]
	si.stats.ShedWindows++
	si.stats.ShedEvents += n
	if e.cfg.Trace != nil {
		e.cfg.Trace(Event{Kind: EventShed, Pipeline: p.spec.Name, Stage: si.spec.Name,
			Time: t, Events: int(n)})
	}
	e.putWindow(w)
}

// getWindow takes a window from the freelist (or allocates during warmup).
func (e *Engine) getWindow() *window {
	if n := len(e.pool); n > 0 {
		w := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		return w
	}
	return &window{arrivals: make([]float64, 0, e.winEvents)}
}

// putWindow recycles a drained window.
func (e *Engine) putWindow(w *window) {
	w.arrivals = w.arrivals[:0]
	e.pool = append(e.pool, w)
}

// stats aggregates the run's outcome.
func (e *Engine) stats() Stats {
	out := Stats{Makespan: e.makespan}
	var total hist
	for _, p := range e.pipes {
		total.merge(&p.h)
		ps := PipelineStats{
			Name: p.spec.Name, Tenant: p.spec.Tenant,
			Events: int64(p.generated), Done: p.done, Shed: p.shed, Windows: p.windows,
			P50: p.h.percentile(0.50), P99: p.h.percentile(0.99),
			Mean: p.h.mean(), Max: p.h.max,
		}
		for k := range p.stages {
			ps.Stages = append(ps.Stages, p.stages[k].stats)
		}
		out.Events += ps.Events
		out.Done += ps.Done
		out.Shed += ps.Shed
		out.Windows += ps.Windows
		out.Pipelines = append(out.Pipelines, ps)
	}
	out.P50 = total.percentile(0.50)
	out.P99 = total.percentile(0.99)
	out.Mean = total.mean()
	out.Max = total.max
	if out.Makespan > 0 {
		out.Throughput = float64(out.Done) / out.Makespan
	}
	for _, ds := range e.devs {
		regions := 1
		if ds.partial {
			regions = ds.d.Regions()
		}
		out.Devices = append(out.Devices, DeviceStats{
			Name: ds.name, Regions: regions, Kernels: ds.kernels,
			Swaps: ds.swaps, SwapSeconds: ds.swapSeconds,
		})
		out.Swaps += ds.swaps
		out.SwapSeconds += ds.swapSeconds
	}
	return out
}
