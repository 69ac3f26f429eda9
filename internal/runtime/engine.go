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
	// Written once, before resolved is stored: sched points at schedule
	// once the engine has served the workflow, and stays nil for one it
	// never served.
	sched *Schedule
	err   error
	// resolved publishes sched and err: a Wait on another goroutine that
	// loads true sees them.
	resolved atomic.Bool
	// schedule is the storage the engine serves the workflow into, held
	// here so that a submission allocates one object for both.
	schedule Schedule

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

// resolve publishes a served workflow's schedule and error.
func (f *Future) resolve(err error) {
	f.sched, f.err = &f.schedule, err
	f.resolved.Store(true)
}

// SubmitOptions name a submission and its tenant for fairness accounting.
type SubmitOptions struct {
	Name   string // workflow name (defaults to wf<N>)
	Tenant string // fairness domain (defaults to "default")
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
	nodes  []*platform.Node
	queues []*workQueue // per-node FIFO, indexed like nodes

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

// Backlog returns the engine's modelled frontier: the latest estimated
// earliest-idle time across nodes, how far into modelled time its accepted
// work already reaches (zero before Start). A federation tier
// (internal/fleet) reads it to judge a site's queue depth before routing
// work there. Backlog takes the serve lock, so it waits while a Start,
// Submit or Apply runs, and must not be called from the engine's own
// trace callback.
func (e *Engine) Backlog() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ds == nil {
		return 0
	}
	return e.ds.backlog
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
	// The monitor is indexed like the node tables: the loop feeds and
	// reads it by node index. Evidence comes only from served tasks, so
	// the monitor NewEngine built has none to lose.
	e.monitor = platform.NewMonitor(e.cluster)
	e.queues = make([]*workQueue, len(e.nodes))
	for i := range e.nodes {
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
// the workflow to completion on the caller's goroutine, as Serve does, and
// the future comes back resolved. Submissions made before Start queue up
// and are placed together, fairly across tenants, when the engine starts.
// After Shutdown it returns ErrShutDown.
func (e *Engine) Submit(w *Workflow, opt SubmitOptions) (*Future, error) {
	if w == nil {
		return nil, fmt.Errorf("runtime: nil workflow")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.Check(Control); err != nil {
		return nil, err
	}
	name, tenant := e.admitNames(opt)
	fut := &Future{Name: name, Tenant: tenant}
	if e.ds == nil {
		st := e.newWFState(w, name, tenant, &fut.schedule)
		st.fut = fut
		e.early = append(e.early, st)
		return fut, nil
	}
	fut.resolve(e.serve(w, name, tenant, &fut.schedule))
	return fut, nil
}

// Serve serves a workflow to completion on the caller's goroutine and
// writes its schedule into storage the caller owns: it overwrites *into,
// with a new assignment slice, and the engine keeps no reference to it
// once Serve returns. It returns the workflow's error; on one, *into holds
// the partial schedule served before the failure. The workflow must not be
// mutated after submission. Serve needs a started engine, and after
// Shutdown it returns ErrShutDown.
func (e *Engine) Serve(w *Workflow, opt SubmitOptions, into *Schedule) error {
	if w == nil || into == nil {
		return fmt.Errorf("runtime: Serve needs a workflow and a schedule to write")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.Check(Serve); err != nil {
		return err
	}
	name, tenant := e.admitNames(opt)
	return e.serve(w, name, tenant, into)
}

// admitNames numbers one submission and fills in its default name and
// tenant.
func (e *Engine) admitNames(opt SubmitOptions) (name, tenant string) {
	e.nextID++
	name, tenant = opt.Name, opt.Tenant
	if name == "" {
		name = fmt.Sprintf("wf%d", e.nextID)
	}
	if tenant == "" {
		tenant = "default"
	}
	return name, tenant
}

// serve is the one serve core of a started engine, run under the serve
// lock by Serve and by Submit after Start: it admits the workflow into a
// recycled record that serves it into the caller's schedule, runs the
// event loop until it drains, and returns the workflow's error. The
// drained loop has recycled the record, but nothing reuses it before the
// serve lock is released, so its error is still there to read.
func (e *Engine) serve(w *Workflow, name, tenant string, into *Schedule) error {
	st := e.newWFState(w, name, tenant, into)
	e.onSubmit(e.ds, st)
	e.runLocal(e.ds)
	return st.err
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
	var sched Schedule
	err := e.Serve(w, SubmitOptions{}, &sched)
	return &sched, err
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

	// tuner is the per-workflow mARGOt instance, reseeded for each
	// workflow the record serves; tuned reports that it holds the current
	// workflow's seeds (adaptive mode only).
	tuner autotuner.Tuner
	tuned bool
	// points holds the tuner's position of each variant's point, -1 when
	// the tuner does not know it (resolvePoints, when tuned).
	points [numVariants]int
	// variants are the workflow's compiler-derived tuner seeds
	// (Workflow.SetVariants), read-only; empty means the engine derives
	// its own.
	variants []autotuner.Variant

	// sched is the caller's storage the workflow is served into; fut is
	// the future of a submission queued before Start, resolved by finish.
	sched *Schedule
	fut   *Future
	err   error // the workflow's outcome, set by finish

	// scratch is the CSR fill cursor, reused across recycles.
	scratch []int32
}

// newWFState admits one submission of w into a recycled record (a new one
// when the free list is empty) that serves it into the caller's schedule,
// which it resets with a new assignment slice. The workflow's slices are
// shared, not copied: Submit only ever appends past what this state sees,
// and no API rewrites a submitted spec in place, so a caller changing the
// workflow later cannot race the engine.
func (e *Engine) newWFState(w *Workflow, name, tenant string, into *Schedule) *wfState {
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
	st.tuned = false
	*into = Schedule{Assignments: make([]Assignment, 0, n)}
	st.sched, st.fut, st.err = into, nil, nil

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
// or ready item still points at it. The schedule is the caller's, so
// dropping the record's pointer to it hands it over whole; the tuner's
// storage stays with the record for the next workflow's Reset.
func (e *Engine) maybeRecycle(st *wfState) {
	if !st.finished || st.inflight != 0 || st.queuedRefs != 0 {
		return
	}
	// Drop the workflow's shared slices and the caller's storage so the
	// free list pins neither.
	st.specs, st.depOff, st.depList = nil, nil, nil
	st.fut = nil
	st.sched = nil
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
	moved   int64   // bytes this placement pulls from other nodes
	groups  int     // batched transfers feeding this placement
	variant Variant // implementation variant
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
	variant  Variant // implementation variant requested
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

	readyCount int     // items across all fairness queues
	backlog    float64 // max nodeFree, read by Backlog
}

// newDispatchState sizes every per-node array and scratch buffer from the
// cluster once, ahead of the event loop; the loop itself then runs
// allocation-free in steady state (enforced by the AllocsPerRun budgets in
// alloc_test.go).
func (e *Engine) newDispatchState() *dispatchState {
	nn := len(e.nodes)
	return &dispatchState{
		nodeFree:  make([]float64, nn),
		clock:     make([]float64, nn),
		dead:      make([]bool, nn),
		heap:      NewTimeHeap(nn),
		inHeap:    make([]bool, nn),
		tenantIdx: make(map[string]int),
		active:    make(map[*wfState]bool),
		gLatest:   make([]float64, nn),
		gBytes:    make([]int64, nn),
		gCount:    make([]int32, nn),
		gTouched:  make([]int32, 0, nn),
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
	e.trace(Event{Kind: EventSubmit, Workflow: st.name, Tenant: st.tenant})
	if st.pending == 0 { // empty workflow completes immediately
		e.finish(ds, st, nil)
		return
	}
	ds.active[st] = true
	if e.cfg.Adaptive {
		st.tuned = e.seedTuner(st)
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
	e.monitor.RecordTask(rep.node, dur)
	if !rep.onFPGA {
		e.monitor.ObserveRatio(rep.node, dur, rep.nominal)
	}
	if st.tuned && rep.variant == VariantFPGA {
		st.tuner.Observe(st.points[VariantFPGA], dur*1000)
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
	// An error finish abandons the workflow's unfinished tasks: their
	// stale ready items are skipped when popped.
	st.err = err
	if st.fut != nil {
		st.fut.resolve(err)
	}
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
	adaptive := st.tuned

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

	var buf [numVariants]Variant
	variants := buf[:0]
	fpgaDrift := 1.0
	if adaptive {
		variants = e.variantsInto(variants, st, task)
		// The fpga drift is node-independent: computed once per placement,
		// not inside the node loop.
		if st.known(VariantFPGA) {
			fpgaDrift = st.tuner.Drift(st.points[VariantFPGA])
		}
	} else {
		variants = append(variants, VariantAsSubmitted)
	}

	taskBytes := task.TotalBytes()
	bestNode, bestVariant := -1, VariantAsSubmitted
	bestReady, bestEnd := 0.0, 0.0
	bestBytes := int64(0)
	bestGroups := 0
	// When no variant of an adaptive task prices on any live node (say an
	// fpga-only seed whose accelerators are all detached at their ready
	// times), a second pass prices the task as submitted, as the static
	// engine does, and execution bills it so.
	for pass := 0; pass < 2 && bestNode < 0; pass++ {
		if pass == 1 {
			if variants[0] == VariantAsSubmitted {
				break
			}
			variants = append(variants[:0], VariantAsSubmitted)
		}
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
			for _, v := range variants {
				var est float64
				switch v {
				case VariantAsSubmitted:
					est, _, _ = costOn(task, n)
				case VariantFPGA:
					// Priced at the modelled time the task would start there:
					// the scheduler knows the environment as of that moment,
					// not the end of any scripted fault timeline.
					c, _, ok := fpgaCostOn(task, n, ready)
					if !ok {
						continue // no programmed device attached at ready time
					}
					est = c * fpgaDrift
				default:
					cores := 1
					if v == VariantCPU16 {
						cores = cpu16Cores
					}
					est = n.RunCPU(task.Flops, taskBytes, cores) * e.monitor.SlowdownEstimate(ni)
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
			Task: task.Name, Node: e.nodes[bestNode].Name, Time: bestReady, Detail: bestVariant.String(),
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
