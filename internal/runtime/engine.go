package runtime

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"everest/internal/autotuner"
	"everest/internal/netsim"
	"everest/internal/platform"
)

// This file implements the resource manager's engine: an event-driven loop
// that multiplexes many workflows (tenants) onto one simulated cluster,
// with per-node work queues, batched inter-node transfers, and reactive
// rescheduling when a node fails mid-run. All time is modelled seconds
// (never wall clock).
//
// The event core is deterministic and allocation-free on its steady-state
// path, and it starts no goroutine: Start, Submit and Shutdown run the
// event loop on the caller's goroutine under one serve lock, which owns
// every piece of scheduling state. Node executions happen inline, ordered
// by a 4-ary min-heap over the per-node queue heads keyed by modelled
// start time with a total tie-break (time, workflow id, task name, node
// index). Each Submit admits its workflow and runs the loop until the
// heap drains, so it returns an already-resolved Future; the observation
// order feeding the monitors and tuners — and with it every trace stream —
// is a pure function of the order submitters take the lock,
// byte-identical across GOMAXPROCS. Workflow records are recycled through
// a per-engine free list and index-based: task ids are dense integers into
// flat spec/dependency arrays, so the hot path does no map-by-name lookups
// and no per-event allocation.

// EventKind classifies engine trace events.
type EventKind int

// Engine trace event kinds.
const (
	// EventSubmit fires when a workflow enters the engine.
	EventSubmit EventKind = iota
	// EventTaskDone fires when a task completes on its node.
	EventTaskDone
	// EventTransfer fires once per batched inter-node dependency transfer.
	EventTransfer
	// EventNodeFailure fires the first time the engine observes a node death.
	EventNodeFailure
	// EventReschedule fires when a task lost to a failure is re-queued.
	EventReschedule
	// EventWorkflowDone fires when the last task of a workflow completes.
	EventWorkflowDone
	// EventDeviceUnplug fires when an accelerator is detached from a node
	// (an SR-IOV VF unplug applied through Engine.Apply).
	EventDeviceUnplug
	// EventDevicePlug fires when a detached accelerator comes back.
	EventDevicePlug
	// EventNodeSlowdown fires when a node's load factor changes.
	EventNodeSlowdown
	// EventVariant fires on each adaptive placement; Detail names the
	// implementation variant the tuner selected.
	EventVariant
)

// eventNames holds each EventKind's name, indexed by kind.
var eventNames = [...]string{
	"submit", "task-done", "transfer", "node-failure", "reschedule",
	"workflow-done", "device-unplug", "device-plug", "node-slowdown",
	"variant",
}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return "unknown"
	}
	return eventNames[k]
}

// Event is one engine trace record. Trace callbacks run under the engine's
// serve lock, so they observe events in a consistent order and need no
// locking of their own.
type Event struct {
	Kind     EventKind
	Workflow string
	Tenant   string
	Task     string
	Node     string
	Time     float64 // modelled seconds
	Detail   string  // event-specific: variant name, device, slowdown factor
}

// EngineConfig configures an Engine.
type EngineConfig struct {
	// Policy selects node placement: PolicyHEFT picks the earliest modelled
	// finish time, PolicyFIFO the earliest modelled start time.
	Policy Policy
	// Failures are node deaths injected at engine start. Placement has no
	// advance knowledge of them: tasks are dispatched normally, lost when
	// the node dies under them, and rescheduled onto the survivors.
	Failures []NodeFailure
	// Events are environment changes (unplug/plug, slowdown) scripted at
	// start as modelled-time condition timelines, so executions price them
	// deterministically. The static engine's placement ignores them (its
	// estimates are design-time); the adaptive engine sees their latest
	// state through the live checks.
	Events []EnvEvent
	// Trace, when set, receives every engine event. It runs on the goroutine
	// inside Start, Submit or Apply, under the serve lock, so it must not
	// call any method of the engine, Apply included, directly or through a
	// hypervisor subscription (sdk.AttachHypervisor).
	Trace func(Event)
	// Adaptive closes the autotuner→engine→virt loop: every placement
	// consults a per-workflow variant tuner and the node monitors instead of
	// the design-time cost model (see adaptive.go).
	Adaptive bool
	// Net, when set, prices inter-node dependency transfers over the
	// packetization-aware cloudFPGA network stack (netsim.Stack: per-MTU
	// framing overhead, one-way stack latency, ack derating) instead of the
	// cluster's flat link model. Small payloads become latency-bound and
	// large ones bandwidth-bound, which is what makes batched transfers
	// between variant placements worth modelling.
	Net *netsim.Stack
}

// Future is the handle returned for one workflow submission. A submission
// made after Start is already resolved when Submit returns; one made
// before Start resolves inside Start (or fails in Shutdown of an engine
// that never started).
type Future struct {
	// Written once, before resolved is stored.
	sched *Schedule
	err   error
	// resolved publishes sched and err: a Wait on another goroutine that
	// loads true sees them.
	resolved atomic.Bool

	// Immutable submission metadata.
	Name   string
	Tenant string
}

// Wait returns the workflow's schedule. It never blocks: on a workflow the
// engine has not served yet (submitted before Start) it returns an error.
func (f *Future) Wait() (*Schedule, error) {
	if !f.resolved.Load() {
		return nil, fmt.Errorf("runtime: workflow %s not served yet: the engine serves it at Start", f.Name)
	}
	return f.sched, f.err
}

// SubmitOptions name a submission and its tenant for fairness accounting.
type SubmitOptions struct {
	Name   string // workflow name (defaults to wf<N>)
	Tenant string // fairness domain (defaults to "default")
}

// EngineStats is a point-in-time snapshot of one engine's serving state —
// the per-engine export a federation tier (internal/fleet) reads to judge a
// site's queue depth and accelerator capacity before routing work to it.
// Counter fields are the event loop's own, read under the serve lock;
// device fields are computed from the cluster at snapshot time.
type EngineStats struct {
	Submitted int // workflows the engine has admitted
	Completed int // workflows drained successfully
	Failed    int // workflows drained with an error
	Active    int // workflows in flight
	// ReadyTasks counts tasks sitting in the tenant fairness queues,
	// dependency-ready but not yet placed on a node.
	ReadyTasks int
	// PendingTasks counts unfinished tasks across all active workflows
	// (ready, queued on nodes, and still dependency-blocked).
	PendingTasks int
	// Backlog is the modelled frontier: the latest estimated earliest-idle
	// time across nodes — how far into modelled time the engine's accepted
	// work already reaches.
	Backlog float64
	// OnlineDevices counts attached accelerator devices on alive nodes;
	// ProgrammedOnline counts the subset carrying a bitstream (the capacity
	// the fpga variant can actually reach).
	OnlineDevices    int
	ProgrammedOnline int
}

// Lifecycle is the one lifecycle state of a serving front (Engine,
// fleet.Fleet, region.Federation), guarded by the front's own lock: it is
// Unstarted when built, Serving after Start, and Shut for good after
// Shutdown or a failed Start.
type Lifecycle uint8

const (
	Unstarted Lifecycle = iota
	Serving
	Shut
)

// Call is the kind of a front's mutating call: Control calls are legal
// before Start and while serving, Serve calls only while serving, and
// Begin (Start) only before Start.
type Call uint8

const (
	Control Call = iota
	Serve
	Begin
)

// ErrShutDown is every front's refusal of a mutating call once it is
// Shut. Callers match it with errors.Is.
var ErrShutDown = errors.New("front shut down")

// Check is the entry check of every mutating call on a front in state l:
// nil when a call of kind c is legal, ErrShutDown once Shut.
func (l Lifecycle) Check(c Call) error {
	switch {
	case l == Shut:
		return ErrShutDown
	case c == Serve && l == Unstarted:
		return errors.New("front not started")
	case c == Begin && l == Serving:
		return errors.New("front already started")
	}
	return nil
}

// Engine multiplexes many workflows over a simulated cluster, serving
// inline: Start, Submit and Shutdown run the event loop on the caller's
// goroutine, and the engine starts none of its own.
type Engine struct {
	cluster *platform.Cluster
	cfg     EngineConfig

	// Node index tables, built at Start: the event loop addresses nodes by
	// dense integer index, never by name.
	nodes   []*platform.Node
	nodeIdx map[string]int
	queues  []*workQueue // per-node FIFO, indexed like nodes

	// mu is the serve lock: Start, Submit and Shutdown run the event loop
	// under it, Apply writes the nodes under it, and it guards everything
	// below plus all scheduling state and the cluster's nodes.
	mu      sync.Mutex
	life    Lifecycle
	nextID  int
	ds      *dispatchState // built at Start: the engine has an event loop
	early   []*wfState     // submissions made before Start, in order
	free    []*wfState     // recycled workflow records (maybeRecycle)
	monitor *platform.Monitor
}

// NewEngine builds an engine over a cluster and takes ownership of the cluster: stale failure state, device claims,
// attachment and load faults left by a previous engine run are cleared
// (platform.Node.Reset), and the engine's own monitor starts with no load
// evidence. An event Apply writes after NewEngine therefore describes
// this engine's world.
func NewEngine(c *platform.Cluster, cfg EngineConfig) *Engine {
	for _, n := range c.Nodes {
		n.Reset()
	}
	return &Engine{cluster: c, cfg: cfg, monitor: platform.NewMonitor(c)}
}

// Health returns the per-node health the engine's monitor has learned
// (platform.Monitor.Snapshot). It takes the serve lock, so it waits while
// a Start, Submit or Apply runs, and must not be called from the engine's
// own trace callback.
func (e *Engine) Health() []platform.NodeHealth {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.monitor.Snapshot()
}

// Stats returns a snapshot of the engine's serving state. The counter
// fields are the event loop's (zero before Start); the device fields are
// computed from the cluster at call time, so they include every event
// Apply has written. Stats takes the serve lock, so it waits while a
// Start, Submit or Apply runs, and must not be called from the engine's
// own trace callback. Safe to call from any other goroutine, before
// Start, and after Shutdown.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var st EngineStats
	if ds := e.ds; ds != nil {
		st = EngineStats{
			Submitted:    ds.submitted,
			Completed:    ds.completed,
			Failed:       ds.failed,
			Active:       len(ds.active),
			ReadyTasks:   ds.readyCount,
			PendingTasks: ds.pendingTotal,
			Backlog:      ds.backlog,
		}
	}
	for _, n := range e.cluster.Nodes {
		if _, failed := n.FailedAt(); failed {
			continue
		}
		for idx := range n.Devices {
			if !n.DeviceOnline(idx) {
				continue
			}
			st.OnlineDevices++
			if _, ok := n.Programmed(idx); ok {
				st.ProgrammedOnline++
			}
		}
	}
	return st
}

// raiseBacklog tracks the modelled frontier as nodeFree entries advance.
func (ds *dispatchState) raiseBacklog(t float64) {
	if t > ds.backlog {
		ds.backlog = t
	}
}

// Start writes cfg.Failures and cfg.Events to the nodes (it refuses a
// non-finite failure time and an event Apply would refuse), after any
// event Apply wrote before it, builds the node index tables and the event loop's state, then
// serves every submission queued before it: the batch is admitted in
// submit order and placed together, round-robin across tenants. After
// Shutdown it returns ErrShutDown, and a Start that fails shuts the
// engine down.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.Check(Begin); err != nil {
		return err
	}
	if err := e.checkStart(); err != nil {
		e.shut()
		return err
	}
	e.life = Serving
	e.applyScript()
	e.nodes = e.cluster.Nodes
	e.nodeIdx = make(map[string]int, len(e.nodes))
	e.queues = make([]*workQueue, len(e.nodes))
	for i, n := range e.nodes {
		e.nodeIdx[n.Name] = i
		// Queues sized from the cluster: a node rarely holds more than a few
		// in-flight placements per peer node feeding it.
		e.queues[i] = newWorkQueueCap(4 * len(e.nodes))
	}
	e.ds = e.newDispatchState()
	for _, st := range e.early {
		e.onSubmit(e.ds, st)
	}
	e.early = nil
	e.runLocal(e.ds)
	return nil
}

// Submit hands a workflow to the engine and returns its result future. The
// workflow must not be mutated after submission. After Start, Submit serves
// the workflow to completion on the caller's goroutine and the future comes
// back resolved. Submissions made before Start queue up and are placed
// together, fairly across tenants, when the engine starts. After Shutdown
// it returns ErrShutDown.
func (e *Engine) Submit(w *Workflow, opt SubmitOptions) (*Future, error) {
	if w == nil {
		return nil, fmt.Errorf("runtime: nil workflow")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.Check(Control); err != nil {
		return nil, err
	}
	e.nextID++
	name := opt.Name
	if name == "" {
		name = fmt.Sprintf("wf%d", e.nextID)
	}
	tenant := opt.Tenant
	if tenant == "" {
		tenant = "default"
	}
	fut := &Future{Name: name, Tenant: tenant}
	if e.ds == nil {
		e.early = append(e.early, e.newWFState(w, name, tenant, fut))
		return fut, nil
	}
	e.onSubmit(e.ds, e.newWFState(w, name, tenant, fut))
	e.runLocal(e.ds)
	return fut, nil
}

// Shutdown refuses further submissions and Apply calls with ErrShutDown.
// Nothing is left to drain: each Submit served its workflow. On an engine
// that never started, the queued submissions resolve with ErrShutDown.
// Calling it again is a no-op.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.life != Shut {
		e.shut()
	}
}

// shut is Shutdown under the serve lock, and the end of a failed Start.
func (e *Engine) shut() {
	e.life = Shut
	for _, st := range e.early {
		st.fut.err = ErrShutDown
		st.fut.resolved.Store(true)
	}
	e.early = nil
}

// ServeAlone serves w alone on a fresh engine over c — NewEngine, Start,
// Submit, Shutdown — and returns its schedule. Like NewEngine it takes
// ownership of the cluster, and it leaves cfg.Failures applied to it.
func ServeAlone(c *platform.Cluster, cfg EngineConfig, w *Workflow) (*Schedule, error) {
	e := NewEngine(c, cfg)
	if err := e.Start(); err != nil {
		return nil, err
	}
	defer e.Shutdown()
	fut, err := e.Submit(w, SubmitOptions{})
	if err != nil {
		return nil, err
	}
	return fut.Wait()
}

// ---------------------------------------------------------------------------
// per-workflow bookkeeping

// wfState is the engine's per-workflow record. Tasks are identified by
// their dense submission index; every per-task attribute lives in a flat
// array indexed by it, and the dependency graph is a pair of flattened
// adjacency lists (CSR layout). The specs and the dependency side are the
// workflow's own, shared read-only; the per-run state and the child side
// live in recycled scratch. A state returns to the engine's free list once
// the workflow has finished AND no queued request or ready item still
// references it (inflight/queuedRefs), so a stale reference can never
// alias a reused record.
type wfState struct {
	name   string
	tenant string

	specs     []TaskSpec // the workflow's specs (index = task id), read-only
	remaining []int32    // task -> unfinished dep count
	doneAt    []float64  // task -> completion time
	locAt     []int32    // task -> node index holding its output (-1 = none)

	// CSR adjacency: deps of task i are depList[depOff[i]:depOff[i+1]];
	// dependents (children) likewise. Children are stored in submission
	// order — that order decides how siblings enter the ready queues when
	// their parent completes, which placement determinism relies on.
	depOff    []int32 // the workflow's, read-only
	depList   []int32 // the workflow's, read-only
	childOff  []int32
	childList []int32

	pending    int // tasks not yet completed
	inflight   int // requests placed on node queues, not yet reported
	queuedRefs int // ready items in tenant queues referencing this state
	finished   bool
	tq         int // tenant queue index (assigned at admission)

	// tuner is the per-workflow mARGOt instance (adaptive mode only).
	tuner *autotuner.Tuner
	// variants are the workflow's compiler-derived tuner seeds
	// (Workflow.SetVariants), read-only; empty means the engine derives
	// its own.
	variants []autotuner.Variant

	sched *Schedule
	fut   *Future

	// scratch is the CSR fill cursor, reused across recycles.
	scratch []int32
}

// newWFState admits one submission of w into a recycled record (a new one
// when the free list is empty). The workflow's slices are shared, not
// copied: Submit only ever appends past what this state sees, and no API
// rewrites a submitted spec in place (Deployment.Stage swaps in a copy),
// so a caller changing the workflow later cannot race the engine.
func (e *Engine) newWFState(w *Workflow, name, tenant string, fut *Future) *wfState {
	var st *wfState
	if k := len(e.free); k > 0 {
		st, e.free = e.free[k-1], e.free[:k-1]
	} else {
		st = new(wfState)
	}
	n := w.Len()
	st.name, st.tenant = name, tenant
	st.pending = n
	st.inflight, st.queuedRefs = 0, 0
	st.finished = false
	st.tq = 0
	st.variants = w.variants
	st.sched = &Schedule{Assignments: make([]Assignment, 0, n)}
	st.fut = fut

	st.specs, st.depOff, st.depList = w.specs[:n:n], nil, nil
	if n > 0 { // a zero Workflow has no leading depOff entry
		st.depOff = w.depOff[: n+1 : n+1]
		st.depList = w.depList[:w.depOff[n]:w.depOff[n]]
	}
	st.remaining = growI32(st.remaining, n)
	st.doneAt = growF64(st.doneAt, n)
	st.locAt = growI32(st.locAt, n)
	st.childOff = growI32(st.childOff, n+1)
	st.scratch = growI32(st.scratch, n)
	st.childList = growI32(st.childList, len(st.depList))

	// Per-run state and per-parent child counts, in submission order:
	// the children lists must not vary run to run.
	for i := 0; i < n; i++ {
		st.remaining[i] = st.depOff[i+1] - st.depOff[i]
		st.doneAt[i] = 0
		st.locAt[i] = -1
		st.childOff[i] = 0
	}
	for _, d := range st.depList {
		st.childOff[d]++
	}
	// Prefix the child counts into offsets, then fill in submission order
	// so each parent's children stay submission-ordered.
	sum := int32(0)
	for i := 0; i < n; i++ {
		cnt := st.childOff[i]
		st.childOff[i] = sum
		st.scratch[i] = sum
		sum += cnt
	}
	st.childOff[n] = sum
	for i := 0; i < n; i++ {
		for di := st.depOff[i]; di < st.depOff[i+1]; di++ {
			d := st.depList[di]
			st.childList[st.scratch[d]] = int32(i)
			st.scratch[d]++
		}
	}
	return st
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// maybeRecycle returns a workflow record to the free list once nothing can
// reference it anymore: the workflow has finished and no node queue entry
// or ready item still points at it. The Future keeps its own schedule, so
// clearing the record's pointers cannot affect a caller holding the handle.
func (e *Engine) maybeRecycle(st *wfState) {
	if !st.finished || st.inflight != 0 || st.queuedRefs != 0 {
		return
	}
	// Drop the workflow's shared slices so the free list does not pin them.
	st.specs, st.depOff, st.depList = nil, nil, nil
	st.fut = nil
	st.sched = nil
	st.tuner = nil
	st.variants = nil
	e.free = append(e.free, st)
}

// readyItem is one dispatchable task waiting in a tenant's fairness queue.
type readyItem struct {
	wf       *wfState
	task     int32
	restart  bool
	minStart float64 // earliest allowed start (failure recovery floor)
}

// execRequest is one unit of work queued on a node.
type execRequest struct {
	wf      *wfState
	task    *TaskSpec
	tidx    int32
	ready   float64 // dep outputs available on this node (incl. transfers)
	restart bool
	moved   int64  // bytes this placement pulls from other nodes
	groups  int    // batched transfers feeding this placement
	variant string // implementation variant ("" = as submitted)
}

// execReport is one inline execution's completion (or loss) notice.
type execReport struct {
	wf       *wfState
	tidx     int32
	node     int // node index
	start    float64
	end      float64
	onFPGA   bool
	restart  bool
	moved    int64   // bytes the completed placement pulled from other nodes
	groups   int     // batched transfers that fed it
	lost     bool    // node died before the task finished
	failAt   float64 // when (only meaningful if lost)
	variant  string  // implementation variant requested ("" = as submitted)
	nominal  float64 // design-time cost of what actually ran (load learning)
	fellBack bool    // FPGA placement executed on CPU (device detached)
}

// ---------------------------------------------------------------------------
// event loop

// tenantQueue is one tenant's FIFO of ready tasks, drained round-robin
// against its peers. Ring layout: popped slots are reused once drained.
type tenantQueue struct {
	items []readyItem
	head  int
}

func (q *tenantQueue) push(it readyItem) { q.items = append(q.items, it) }

func (q *tenantQueue) empty() bool { return q.head >= len(q.items) }

func (q *tenantQueue) pop() readyItem {
	it := q.items[q.head]
	q.items[q.head].wf = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return it
}

// dispatchState is the event loop's view of the cluster, built once at
// Start and touched only under the serve lock. Every per-node attribute is
// a flat slice indexed by node; the execution order across nodes comes
// from a modelled-time heap over the queue heads.
type dispatchState struct {
	nodeFree []float64 // estimated earliest idle time per node (placement)
	clock    []float64 // realized per-node modelled clock (execution)
	dead     []bool    // observed node deaths
	deadAt   []float64

	// heap orders the per-node queue heads by modelled start time with the
	// deterministic tie-break (time, workflow, task, node index). inHeap
	// tracks which nodes currently have an entry.
	heap   *TimeHeap
	inHeap []bool

	// ready queues, one per tenant, drained round-robin. Bit qi of
	// nonEmpty is set iff queues[qi] holds an item, so the next queue in
	// round-robin order is found a word at a time.
	queues    []*tenantQueue
	nonEmpty  []uint64
	tenantIdx map[string]int
	rrNext    int

	active map[*wfState]bool

	// Dependency-grouping scratch, indexed by source node and reset after
	// each placement via the touched list (see place).
	gLatest  []float64
	gBytes   []int64
	gCount   []int32
	gTouched []int32
	// variant candidate scratch (adaptive placements).
	variantsBuf []string

	// Cached monitor slowdown estimates per node. The estimate only moves
	// when onReport feeds a software completion ratio for that node, which
	// invalidates the cache entry — so place() avoids a by-name map lookup
	// per candidate node per task.
	slowEst   []float64
	slowValid []bool

	// Aggregates feeding the Stats snapshot, maintained incrementally
	// where the event loop mutates queues/active/nodeFree so publishing a
	// snapshot is O(1).
	submitted    int
	completed    int
	failed       int
	readyCount   int     // items across all fairness queues
	pendingTotal int     // unfinished tasks across active workflows
	backlog      float64 // max nodeFree
}

// newDispatchState sizes every per-node array and scratch buffer from the
// cluster once, ahead of the event loop; the loop itself then runs
// allocation-free in steady state (enforced by the AllocsPerRun budgets in
// alloc_test.go).
func (e *Engine) newDispatchState() *dispatchState {
	nn := len(e.nodes)
	return &dispatchState{
		nodeFree:    make([]float64, nn),
		clock:       make([]float64, nn),
		dead:        make([]bool, nn),
		deadAt:      make([]float64, nn),
		heap:        NewTimeHeap(nn),
		inHeap:      make([]bool, nn),
		tenantIdx:   make(map[string]int),
		active:      make(map[*wfState]bool),
		gLatest:     make([]float64, nn),
		gBytes:      make([]int64, nn),
		gCount:      make([]int32, nn),
		gTouched:    make([]int32, 0, nn),
		variantsBuf: make([]string, 0, 3),
		slowEst:     make([]float64, nn),
		slowValid:   make([]bool, nn),
	}
}

// runLocal is the deterministic event loop, run under the serve lock until
// every admitted workflow has drained: it places ready tasks into the node
// queues and executes queued requests inline, one per iteration, in
// modelled-start-time order across nodes (FIFO within a node). It returns
// with the engine idle: no active workflow, no ready item and every node
// queue empty, so an event Apply writes between serves has no placement
// to invalidate and no active tuner to inform.
func (e *Engine) runLocal(ds *dispatchState) {
	for {
		e.drainReady(ds)
		if ds.heap.Len() == 0 {
			return
		}
		it := ds.heap.PopMin()
		ni := it.Seq
		ds.inHeap[ni] = false
		e.execNode(ds, ni)
		e.refreshHead(ds, ni)
	}
}

// headStart is the modelled start time of a node's next queued request.
func (ds *dispatchState) headStart(ni int, r execRequest) float64 {
	start := r.ready
	if c := ds.clock[ni]; c > start {
		start = c
	}
	return start
}

// refreshHead re-enters a node into the heap for its new queue head.
func (e *Engine) refreshHead(ds *dispatchState, ni int) {
	if ds.inHeap[ni] {
		return
	}
	if r, ok := e.queues[ni].peek(); ok {
		ds.heap.Push(TimeItem{
			Time: ds.headStart(ni, r), WF: r.wf.name, Task: r.task.Name, Seq: ni,
		})
		ds.inHeap[ni] = true
	}
}

// execNode executes the head request of one node inline: it advances the
// node's modelled clock, claims FPGA devices through the platform hooks,
// and feeds the completion (or loss, once the node's injected failure time
// passes) straight into onReport.
func (e *Engine) execNode(ds *dispatchState, ni int) {
	req, ok := e.queues[ni].pop()
	if !ok {
		return
	}
	n := e.nodes[ni]
	start := ds.headStart(ni, req)
	// Execution pays the live cost priced at the task's modelled start:
	// the load and attachment in effect then. An FPGA placement whose
	// device was unplugged by its start falls back to software.
	cost, nominal, onFPGA, devIdx, fellBack := costLive(req.task, n, req.variant, start)
	var end float64
	if onFPGA {
		s, f, ok, err := n.ClaimDeviceAt(devIdx, start, cost)
		if err == nil && ok {
			start, end = s, f
		} else {
			// The claim would queue past a detach (or failed): the
			// device is gone by the time it is this task's turn, so it
			// degrades to the as-submitted software fallback after all.
			onFPGA, fellBack = false, true
			cost, nominal = softwareFallback(req.task, n, start)
			end = start + cost
		}
	} else {
		end = start + cost
	}
	if failAt, failed := n.FailedAt(); failed && end > failAt {
		// The node dies under this task: everything queued here is lost.
		ds.clock[ni] = failAt
		e.onReport(ds, execReport{
			wf: req.wf, tidx: req.tidx, node: ni,
			restart: req.restart, lost: true, failAt: failAt,
		})
		return
	}
	ds.clock[ni] = end
	e.onReport(ds, execReport{
		wf: req.wf, tidx: req.tidx, node: ni,
		start: start, end: end, onFPGA: onFPGA, restart: req.restart,
		moved: req.moved, groups: req.groups,
		variant: req.variant, nominal: nominal, fellBack: fellBack,
	})
}

func (e *Engine) trace(ev Event) {
	if e.cfg.Trace != nil {
		e.cfg.Trace(ev)
	}
}

// pushReady appends one ready task to its workflow's tenant queue.
func (e *Engine) pushReady(ds *dispatchState, st *wfState, task int32, restart bool, minStart float64) {
	ds.queues[st.tq].push(readyItem{wf: st, task: task, restart: restart, minStart: minStart})
	ds.nonEmpty[st.tq>>6] |= 1 << (st.tq & 63)
	st.queuedRefs++
	ds.readyCount++
}

// tenantQueue returns the index of a tenant's fairness queue, adding an
// empty one for a new tenant.
func (ds *dispatchState) tenantQueue(tenant string) int {
	ti, ok := ds.tenantIdx[tenant]
	if !ok {
		ti = len(ds.queues)
		ds.tenantIdx[tenant] = ti
		ds.queues = append(ds.queues, &tenantQueue{})
		if ti>>6 == len(ds.nonEmpty) {
			ds.nonEmpty = append(ds.nonEmpty, 0)
		}
	}
	return ti
}

func (e *Engine) onSubmit(ds *dispatchState, st *wfState) {
	ds.submitted++
	e.trace(Event{Kind: EventSubmit, Workflow: st.name, Tenant: st.tenant})
	st.sched.Policy = e.cfg.Policy
	if st.pending == 0 { // empty workflow completes immediately
		e.finish(ds, st, nil)
		return
	}
	ds.active[st] = true
	ds.pendingTotal += st.pending
	if e.cfg.Adaptive {
		st.tuner = e.newWorkflowTuner(st)
	}
	st.tq = ds.tenantQueue(st.tenant)
	for i := range st.specs {
		if st.remaining[i] == 0 {
			e.pushReady(ds, st, int32(i), false, 0)
		}
	}
}

func (e *Engine) onReport(ds *dispatchState, rep execReport) {
	st := rep.wf
	st.inflight--
	nodeName := e.nodes[rep.node].Name
	taskName := st.specs[rep.tidx].Name
	if rep.lost {
		// First observation of this node's death: mark it and trace.
		if !ds.dead[rep.node] {
			ds.dead[rep.node] = true
			ds.deadAt[rep.node] = rep.failAt
			e.trace(Event{Kind: EventNodeFailure, Node: nodeName, Time: rep.failAt})
		}
		if st.finished {
			e.maybeRecycle(st)
			return
		}
		// Re-queue the lost task; it may not start before the failure time
		// (the monitor only learns of the loss when the node dies).
		e.trace(Event{
			Kind: EventReschedule, Workflow: st.name, Tenant: st.tenant,
			Task: taskName, Node: nodeName, Time: rep.failAt,
		})
		st.sched.Adapt.Reschedules++
		e.pushReady(ds, st, rep.tidx, true, rep.failAt)
		return
	}
	if st.finished {
		e.maybeRecycle(st)
		return
	}
	if free := ds.nodeFree[rep.node]; rep.end > free {
		ds.nodeFree[rep.node] = rep.end
		ds.raiseBacklog(rep.end)
	}
	// Feed the observation layers, split by what each owns: the monitor
	// learns per-node load from software completions (observed/nominal),
	// the tuner learns per-variant health — only the fpga variant, whose
	// fallback-to-software blowups are exactly the degradation signal;
	// software variants' live cost is already per-node nominal × monitor
	// load, and feeding their raw latencies into the tuner would mix task
	// sizes into the estimate and double-count node load.
	dur := rep.end - rep.start
	e.monitor.RecordTask(nodeName, dur)
	if !rep.onFPGA {
		e.monitor.ObserveRatio(nodeName, dur, rep.nominal)
		ds.slowValid[rep.node] = false
	}
	if st.tuner != nil && rep.variant == VariantFPGA {
		st.tuner.Observe(rep.variant, dur*1000)
	}
	if rep.fellBack {
		st.sched.Adapt.Fallbacks++
	}
	st.insertAssignment(Assignment{
		Task: taskName, Node: nodeName, Start: rep.start, End: rep.end,
		OnFPGA: rep.onFPGA, Restart: rep.restart, Variant: rep.variant,
	})
	st.sched.Transfers += rep.groups
	st.sched.MovedBytes += rep.moved
	if rep.end > st.sched.Makespan {
		st.sched.Makespan = rep.end
	}
	st.doneAt[rep.tidx] = rep.end
	st.locAt[rep.tidx] = int32(rep.node)
	st.pending--
	ds.pendingTotal--
	e.trace(Event{
		Kind: EventTaskDone, Workflow: st.name, Tenant: st.tenant,
		Task: taskName, Node: nodeName, Time: rep.end,
	})
	for ci := st.childOff[rep.tidx]; ci < st.childOff[rep.tidx+1]; ci++ {
		c := st.childList[ci]
		st.remaining[c]--
		if st.remaining[c] == 0 {
			e.pushReady(ds, st, c, false, 0)
		}
	}
	if st.pending == 0 {
		e.finish(ds, st, nil)
	}
}

// insertAssignment keeps the schedule ordered by Start as completions
// arrive, inserting after equal keys — the stable order the full-slice
// re-sort used to produce, without re-sorting on every mutation. Reports
// arrive roughly time-ordered, so the backward scan is O(1) amortized.
func (st *wfState) insertAssignment(a Assignment) {
	as := st.sched.Assignments
	i := len(as)
	for i > 0 && as[i-1].Start > a.Start {
		i--
	}
	as = append(as, Assignment{})
	copy(as[i+1:], as[i:])
	as[i] = a
	st.sched.Assignments = as
}

func (e *Engine) finish(ds *dispatchState, st *wfState, err error) {
	if st.finished {
		return
	}
	st.finished = true
	delete(ds.active, st)
	// An error finish abandons the workflow's unfinished tasks (its stale
	// ready items are skipped — and uncounted — when popped).
	ds.pendingTotal -= st.pending
	if err != nil {
		ds.failed++
	} else {
		ds.completed++
	}
	st.fut.sched = st.sched
	st.fut.err = err
	st.fut.resolved.Store(true)
	e.trace(Event{
		Kind: EventWorkflowDone, Workflow: st.name, Tenant: st.tenant,
		Time: st.sched.Makespan,
	})
	e.maybeRecycle(st)
}

// drainReady places every queued ready task, visiting tenants round-robin so
// no tenant's burst can starve the others.
func (e *Engine) drainReady(ds *dispatchState) {
	for {
		item, ok := e.nextFair(ds)
		if !ok {
			return
		}
		item.wf.queuedRefs--
		if item.wf.finished {
			e.maybeRecycle(item.wf)
			continue
		}
		e.place(ds, item)
	}
}

// nextFair pops the next ready task in round-robin tenant order: from the
// first non-empty queue at or after rrNext, wrapping around.
func (e *Engine) nextFair(ds *dispatchState) (readyItem, bool) {
	if ds.readyCount == 0 {
		return readyItem{}, false
	}
	// rrNext's own word is masked below rrNext; once the scan wraps back
	// to it, its low bits are the last candidates in round-robin order.
	w := ds.rrNext >> 6
	word := ds.nonEmpty[w] &^ (1<<(ds.rrNext&63) - 1)
	for word == 0 {
		w = (w + 1) % len(ds.nonEmpty)
		word = ds.nonEmpty[w]
	}
	qi := w<<6 + bits.TrailingZeros64(word)
	q := ds.queues[qi]
	it := q.pop()
	if q.empty() {
		ds.nonEmpty[w] &^= 1 << (qi & 63)
	}
	ds.readyCount--
	ds.rrNext = (qi + 1) % len(ds.queues)
	return it, true
}

// place chooses a node (and, in adaptive mode, an implementation variant)
// for one ready task, records the batched dependency transfers, and
// enqueues the task on that node's work queue. The static path estimates
// every node with the design-time cost model (costOn); the adaptive path
// ranges over the workflow tuner's admissible variants estimated against
// the live environment. Dependency outputs are grouped by source node once
// per placement (scratch arrays in ds), and each candidate node prices one
// batched transfer per foreign group.
func (e *Engine) place(ds *dispatchState, item readyItem) {
	st := item.wf
	tid := item.task
	task := &st.specs[tid]
	adaptive := e.cfg.Adaptive && st.tuner != nil

	// Group dependency outputs by the node holding them: one bulk transfer
	// per foreign source (one link latency per source instead of one per
	// dependency).
	touched := ds.gTouched[:0]
	for di := st.depOff[tid]; di < st.depOff[tid+1]; di++ {
		d := st.depList[di]
		src := st.locAt[d]
		if ds.gCount[src] == 0 {
			touched = append(touched, src)
		}
		ds.gCount[src]++
		ds.gBytes[src] += st.specs[d].OutputBytes
		if t := st.doneAt[d]; t > ds.gLatest[src] {
			ds.gLatest[src] = t
		}
	}

	variants := ds.variantsBuf[:0]
	fpgaDrift := 1.0
	if adaptive {
		variants = e.variantsInto(variants, st, task)
		// The fpga drift is node-independent: computed once per placement,
		// not inside the node loop.
		fpgaDrift = st.tuner.Drift(VariantFPGA)
	} else {
		variants = append(variants, "")
	}
	ds.variantsBuf = variants

	taskBytes := task.TotalBytes()
	bestNode, bestVariant := -1, ""
	bestReady, bestEnd := 0.0, 0.0
	bestBytes := int64(0)
	bestGroups := 0
	for ni, n := range e.nodes {
		if ds.dead[ni] {
			continue
		}
		ready, moved, groups := 0.0, int64(0), 0
		for _, src := range touched {
			arrive := ds.gLatest[src]
			if int(src) != ni {
				arrive += e.transferSeconds(e.nodes[src].Name, n.Name, ds.gBytes[src], int(ds.gCount[src]))
				moved += ds.gBytes[src]
				groups++
			}
			if arrive > ready {
				ready = arrive
			}
		}
		if item.minStart > ready {
			ready = item.minStart
		}
		if free := ds.nodeFree[ni]; free > ready {
			ready = free
		}
		slowdown := -1.0 // monitor estimate, fetched once per node, lazily
		for _, v := range variants {
			var est float64
			if !adaptive {
				est, _, _ = costOn(task, n)
			} else if v == VariantFPGA {
				// Priced at the modelled time the task would start there:
				// the scheduler knows the environment as of that moment,
				// not the end of any scripted fault timeline.
				c, _, ok := fpgaCostOn(task, n, ready)
				if !ok {
					continue // no programmed device attached at ready time
				}
				est = c * fpgaDrift
			} else {
				cores := 1
				if v == VariantCPU16 {
					cores = cpu16Cores
				}
				if slowdown < 0 {
					if !ds.slowValid[ni] {
						ds.slowEst[ni] = e.monitor.SlowdownEstimate(n.Name)
						ds.slowValid[ni] = true
					}
					slowdown = ds.slowEst[ni]
				}
				est = n.RunCPU(task.Flops, taskBytes, cores) * slowdown
			}
			end := ready + est
			better := bestNode < 0 || end < bestEnd
			if e.cfg.Policy == PolicyFIFO {
				// FIFO places by earliest start; variants on one node tie
				// on start, so the estimate breaks the tie among them.
				better = bestNode < 0 || ready < bestReady ||
					(adaptive && ready == bestReady && end < bestEnd)
			}
			if better {
				bestNode, bestVariant, bestReady, bestEnd = ni, v, ready, end
				bestBytes, bestGroups = moved, groups
			}
		}
	}
	// Reset the grouping scratch for the next placement.
	for _, src := range touched {
		ds.gLatest[src], ds.gBytes[src], ds.gCount[src] = 0, 0, 0
	}
	ds.gTouched = touched[:0]

	if bestNode < 0 {
		e.finish(ds, st, fmt.Errorf("runtime: no alive node can run task %q of %s", task.Name, st.name))
		return
	}
	ds.nodeFree[bestNode] = bestEnd
	ds.raiseBacklog(bestEnd)
	if bestGroups > 0 {
		e.trace(Event{
			Kind: EventTransfer, Workflow: st.name, Tenant: st.tenant,
			Task: task.Name, Node: e.nodes[bestNode].Name, Time: bestReady,
		})
	}
	if adaptive {
		e.trace(Event{
			Kind: EventVariant, Workflow: st.name, Tenant: st.tenant,
			Task: task.Name, Node: e.nodes[bestNode].Name, Time: bestReady, Detail: bestVariant,
		})
	}
	// Transfer stats are accounted on completion (onReport), not here: a
	// placement lost to a node failure is re-placed and would otherwise
	// count its transfers twice.
	st.inflight++
	e.queues[bestNode].push(execRequest{
		wf: st, task: task, tidx: tid, ready: bestReady, restart: item.restart,
		moved: bestBytes, groups: bestGroups, variant: bestVariant,
	})
	e.refreshHead(ds, bestNode)
}

// transferSeconds prices moving the coalesced outputs of `deps`
// dependencies between two nodes. With a network stack configured
// (EngineConfig.Net) the batch pays one packetized transfer — per-MTU
// framing overhead plus one stack traversal, so coalescing saves the
// (deps-1) extra traversals; otherwise the cluster's flat link model
// applies.
func (e *Engine) transferSeconds(from, to string, bytes int64, deps int) float64 {
	if from == to || deps <= 0 {
		return 0
	}
	if e.cfg.Net != nil {
		return e.cfg.Net.SendSeconds(bytes)
	}
	return e.cluster.BatchTransferSeconds(from, to, bytes, deps)
}

// ---------------------------------------------------------------------------
// per-node work queues

// workQueue is an unbounded FIFO of execution requests in ring layout (the
// popped prefix is reused once the queue drains). Push from placement and
// peek/pop from inline execution both run in the event loop under the
// engine's serve lock, so the queue carries no synchronization of its own.
type workQueue struct {
	items []execRequest
	head  int
}

func newWorkQueueCap(n int) *workQueue {
	return &workQueue{items: make([]execRequest, 0, n)}
}

func (q *workQueue) push(r execRequest) {
	q.items = append(q.items, r)
}

// peek returns the head request without removing it.
func (q *workQueue) peek() (execRequest, bool) {
	if q.head >= len(q.items) {
		return execRequest{}, false
	}
	return q.items[q.head], true
}

// pop removes and returns the head request; ok=false when empty.
func (q *workQueue) pop() (execRequest, bool) {
	if q.head >= len(q.items) {
		return execRequest{}, false
	}
	r := q.items[q.head]
	q.items[q.head] = execRequest{} // drop references for GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return r, true
}
