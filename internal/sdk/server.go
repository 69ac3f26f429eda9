package sdk

import (
	"fmt"
	"sync"

	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/virt"
)

// Server is the multi-tenant submission front of the virtualized runtime
// (paper §VI-A): it accepts many concurrent workflow submissions, bounds how
// many execute at once, keeps tenants fair through the engine's round-robin
// ready queues, and hands each caller a future for its result. It is the
// layer `basecamp serve` exposes.
type Server struct {
	sdk   *SDK
	eng   *runtime.Engine
	slots chan struct{} // admission semaphore; nil when unlimited

	mu        sync.Mutex
	started   bool
	closed    bool
	submitted int
	completed int
	failed    int
	tenants   map[string]*TenantStats
	makespan  float64
	hyps      []*virt.Hypervisor // attached via AttachHypervisor

	wg sync.WaitGroup // outstanding submissions
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// Policy selects the engine's placement strategy (default PolicyHEFT).
	Policy runtime.Policy
	// MaxConcurrent bounds how many workflows execute simultaneously
	// (admission control); 0 means unlimited.
	MaxConcurrent int
	// Failures are node deaths injected at start (engine semantics).
	Failures []runtime.NodeFailure
	// Trace receives engine events when set.
	Trace func(runtime.Event)
	// Adaptive enables variant-aware scheduling: every placement consults
	// the per-workflow autotuner and the node monitors, and hot-plug events
	// invalidate stale placements (engine adaptive mode).
	Adaptive bool
	// Faults is a script of environment events injected while the server
	// runs, each triggered after a number of completed tasks (see Fault).
	Faults []Fault
	// Events are modelled-time environment changes scripted at start
	// (engine semantics; deterministic, unlike the completion-triggered
	// Faults).
	Events []runtime.EnvEvent
	// Net prices inter-node transfers over the packetization-aware
	// cloudFPGA network stack when set (engine semantics).
	Net *netsim.Stack
}

// TenantStats aggregates one tenant's submissions.
type TenantStats struct {
	Submitted  int
	Completed  int
	Failed     int
	LastFinish float64 // modelled completion time of the tenant's last workflow

	// Adaptation activity across the tenant's completed workflows.
	Reschedules int            // placements invalidated and redone
	Fallbacks   int            // FPGA placements that executed on CPU
	Variants    map[string]int // completed tasks per selected variant
}

// ServerStats is a snapshot of the server's counters.
type ServerStats struct {
	Submitted int
	Completed int
	Failed    int
	// Makespan is the modelled time at which the last completed workflow
	// finished — the engine-wide completion time of everything served so far.
	Makespan float64
	Tenants  map[string]TenantStats
}

// NewServer builds a server over the SDK's cluster and registry.
func (s *SDK) NewServer(cfg ServerConfig) *Server {
	srv := &Server{
		sdk:     s,
		tenants: make(map[string]*TenantStats),
	}
	trace := cfg.Trace
	if len(cfg.Faults) > 0 {
		trace = srv.faultDriver(cfg.Faults, cfg.Trace)
	}
	srv.eng = runtime.NewEngine(s.Cluster, s.Registry, runtime.EngineConfig{
		Policy: cfg.Policy, Failures: cfg.Failures, Trace: trace,
		Adaptive: cfg.Adaptive, Events: cfg.Events, Net: cfg.Net,
	})
	if cfg.MaxConcurrent > 0 {
		srv.slots = make(chan struct{}, cfg.MaxConcurrent)
	}
	return srv
}

// Monitor exposes the engine's per-node observation layer (health
// snapshots for CLIs and tests).
func (srv *Server) Monitor() *platform.Monitor { return srv.eng.Monitor() }

// UnplugDevice detaches an accelerator mid-run (engine control API).
func (srv *Server) UnplugDevice(node string, dev int, at float64) error {
	return srv.eng.UnplugDevice(node, dev, at)
}

// PlugDevice reattaches an accelerator mid-run.
func (srv *Server) PlugDevice(node string, dev int, at float64) error {
	return srv.eng.PlugDevice(node, dev, at)
}

// SetNodeSlowdown changes a node's load factor mid-run.
func (srv *Server) SetNodeSlowdown(node string, factor, at float64) error {
	return srv.eng.SetNodeSlowdown(node, factor, at)
}

// Start brings the engine up. Submissions made before Start queue. The
// engine's ownership reset marks every device attached; Start then
// re-derives attachment from any hypervisors attached before it ran.
func (srv *Server) Start() error {
	srv.mu.Lock()
	if srv.started {
		srv.mu.Unlock()
		return fmt.Errorf("sdk: server already started")
	}
	srv.started = true
	// The engine starts under srv.mu so a concurrent Shutdown serializes
	// behind it (it must observe a fully started engine to stop it);
	// syncHypervisors runs after release because it takes srv.mu itself.
	err := srv.eng.Start()
	srv.mu.Unlock()
	if err != nil {
		return err
	}
	srv.syncHypervisors()
	return nil
}

// Submission is the caller's handle on one submitted workflow.
type Submission struct {
	Name   string
	Tenant string

	done  chan struct{}
	sched *runtime.Schedule
	err   error
}

// Wait blocks until the workflow completes and returns its schedule.
func (sub *Submission) Wait() (*runtime.Schedule, error) {
	<-sub.done
	return sub.sched, sub.err
}

// Done returns a channel closed when the workflow has completed.
func (sub *Submission) Done() <-chan struct{} { return sub.done }

// Submit accepts a workflow on behalf of a tenant. It never blocks the
// caller: serving (and admission control, MaxConcurrent) runs on a
// per-submission goroutine, so over-limit submissions queue instead of
// failing. Without a limit or an attached hypervisor, submissions made
// before Start reach the engine here, in submit order, so Start places the
// whole batch together.
func (srv *Server) Submit(tenant, name string, w *runtime.Workflow) (*Submission, error) {
	if w == nil {
		return nil, fmt.Errorf("sdk: nil workflow")
	}
	if tenant == "" {
		tenant = "default"
	}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil, fmt.Errorf("sdk: server shut down")
	}
	srv.submitted++
	if name == "" {
		name = fmt.Sprintf("%s/wf%d", tenant, srv.submitted)
	}
	ts := srv.tenants[tenant]
	if ts == nil {
		ts = &TenantStats{}
		srv.tenants[tenant] = ts
	}
	ts.Submitted++
	srv.wg.Add(1)
	opt := runtime.SubmitOptions{Name: name, Tenant: tenant}
	var fut *runtime.Future
	var err error
	// Not with a hypervisor attached: the engine serves a queued batch
	// inside its Start, before Start re-derives device attachment.
	queued := !srv.started && srv.slots == nil && len(srv.hyps) == 0
	if queued {
		// The engine is not started (Start takes srv.mu), so this only
		// queues the workflow.
		fut, err = srv.eng.Submit(w, opt)
	}
	srv.mu.Unlock()

	sub := &Submission{Name: name, Tenant: tenant, done: make(chan struct{})}
	go func() {
		defer srv.wg.Done()
		if !queued {
			if srv.slots != nil {
				srv.slots <- struct{}{}
				defer func() { <-srv.slots }()
			}
			fut, err = srv.eng.Submit(w, opt)
		}
		if err == nil {
			sub.sched, sub.err = fut.Wait()
		} else {
			sub.err = err
		}
		srv.record(sub)
		close(sub.done)
	}()
	return sub, nil
}

func (srv *Server) record(sub *Submission) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	ts := srv.tenants[sub.Tenant]
	if sub.err != nil {
		srv.failed++
		ts.Failed++
		return
	}
	srv.completed++
	ts.Completed++
	if sub.sched.Makespan > ts.LastFinish {
		ts.LastFinish = sub.sched.Makespan
	}
	if sub.sched.Makespan > srv.makespan {
		srv.makespan = sub.sched.Makespan
	}
	ts.Reschedules += sub.sched.Adapt.Reschedules
	ts.Fallbacks += sub.sched.Adapt.Fallbacks
	for v, n := range sub.sched.Adapt.VariantCounts {
		if ts.Variants == nil {
			ts.Variants = make(map[string]int)
		}
		ts.Variants[v] += n
	}
}

// Stats returns a snapshot of the server counters.
func (srv *Server) Stats() ServerStats {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	out := ServerStats{
		Submitted: srv.submitted,
		Completed: srv.completed,
		Failed:    srv.failed,
		Makespan:  srv.makespan,
		Tenants:   make(map[string]TenantStats, len(srv.tenants)),
	}
	for name, ts := range srv.tenants {
		cp := *ts
		if ts.Variants != nil {
			cp.Variants = make(map[string]int, len(ts.Variants))
			for v, n := range ts.Variants {
				cp.Variants[v] = n
			}
		}
		out.Tenants[name] = cp
	}
	return out
}

// Shutdown refuses new submissions, waits for in-flight workflows to drain,
// stops the engine, and returns the final stats. Calling Shutdown on a
// server that was never started first starts the engine, so submissions
// queued before Start still drain instead of hanging their waiters.
func (srv *Server) Shutdown() ServerStats {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return srv.Stats()
	}
	srv.closed = true
	started := srv.started
	srv.started = true
	srv.mu.Unlock()
	if !started {
		_ = srv.eng.Start()
		srv.syncHypervisors()
	}
	srv.wg.Wait()
	srv.eng.Shutdown()
	return srv.Stats()
}

// SerialMakespan models the pre-engine baseline: each workflow planned alone
// by the serial list scheduler and executed back-to-back, so the total is
// the sum of the individual makespans. It is the denominator of the
// multiplexing speedup `basecamp serve` and the benchmarks report.
func (s *SDK) SerialMakespan(policy runtime.Policy, ws ...*runtime.Workflow) (float64, error) {
	total := 0.0
	sched := s.NewScheduler(policy)
	for i, w := range ws {
		plan, err := sched.Plan(w)
		if err != nil {
			return 0, fmt.Errorf("sdk: serial plan of workflow %d: %w", i, err)
		}
		total += plan.Makespan
	}
	return total, nil
}
