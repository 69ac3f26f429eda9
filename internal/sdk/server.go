package sdk

import (
	"fmt"
	"sync"

	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// Server is the multi-tenant submission front of the virtualized runtime
// (paper §VI-A): it accepts workflow submissions from many tenants, keeps
// tenants fair through the engine's round-robin ready queues, and hands
// each caller the engine's future for its result. Every call runs on the
// caller's goroutine: a submission made after Start is served before
// Submit returns, and one made before Start is served by Start. It is the
// layer `basecamp serve` exposes.
type Server struct {
	sdk *SDK
	eng *runtime.Engine

	mu        sync.Mutex
	started   bool
	closed    bool
	early     []*runtime.Future // pre-Start submissions, recorded by Start
	submitted int
	completed int
	failed    int
	tenants   map[string]*TenantStats
	makespan  float64
}

// ServerConfig configures a Server.
type ServerConfig struct {
	// Policy selects the engine's placement strategy (default PolicyHEFT).
	Policy runtime.Policy
	// Failures are node deaths injected at start (engine semantics).
	Failures []runtime.NodeFailure
	// Trace receives engine events when set, on the goroutine serving the
	// workflow. Start and Shutdown serve under the server's lock, so it
	// may call the control API (UnplugDevice, PlugDevice, SetNodeSlowdown)
	// and Monitor but no other Server method.
	Trace func(runtime.Event)
	// Adaptive enables variant-aware scheduling: every placement consults
	// the per-workflow autotuner and the node monitors, and hot-plug events
	// invalidate stale placements (engine adaptive mode).
	Adaptive bool
	// Events are modelled-time environment changes scripted at start
	// (engine semantics).
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

// NewServer builds a server over the SDK's cluster and registry. Its
// engine takes ownership of the cluster here (runtime.NewEngine).
func (s *SDK) NewServer(cfg ServerConfig) *Server {
	srv := &Server{
		sdk:     s,
		tenants: make(map[string]*TenantStats),
	}
	srv.eng = runtime.NewEngine(s.Cluster, s.Registry, runtime.EngineConfig{
		Policy: cfg.Policy, Failures: cfg.Failures, Trace: cfg.Trace,
		Adaptive: cfg.Adaptive, Events: cfg.Events, Net: cfg.Net,
	})
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

// Start brings the engine up and serves the submissions made before it,
// placed together as one batch.
func (srv *Server) Start() error {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.started {
		return fmt.Errorf("sdk: server already started")
	}
	srv.started = true
	if err := srv.eng.Start(); err != nil {
		return err
	}
	srv.recordEarly()
	return nil
}

// recordEarly accounts the pre-Start batch once the engine has resolved
// it. Callers hold srv.mu.
func (srv *Server) recordEarly() {
	for _, fut := range srv.early {
		srv.record(fut)
	}
	srv.early = nil
}

// Submit accepts a workflow on behalf of a tenant and returns the engine's
// future for it. After Start the workflow is served and recorded before
// Submit returns. Before Start it only queues: Start serves the whole
// batch in submit order, and Wait on its future fails until then.
func (srv *Server) Submit(tenant, name string, w *runtime.Workflow) (*runtime.Future, error) {
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
	opt := runtime.SubmitOptions{Name: name, Tenant: tenant}
	if !srv.started {
		// The engine only queues before Start. Doing it under srv.mu keeps
		// the batch in submit order and wholly ahead of a concurrent Start.
		defer srv.mu.Unlock()
		fut, err := srv.eng.Submit(w, opt)
		if err == nil {
			srv.early = append(srv.early, fut)
		}
		return fut, err
	}
	srv.mu.Unlock()
	// Served outside srv.mu: the engine serializes submitters itself, and
	// Stats readers need not wait for a serve.
	fut, err := srv.eng.Submit(w, opt)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if err != nil { // a concurrent Shutdown stopped the engine first
		srv.failed++
		ts.Failed++
		return nil, err
	}
	srv.record(fut)
	return fut, nil
}

// record accounts one resolved future. Callers hold srv.mu.
func (srv *Server) record(fut *runtime.Future) {
	ts := srv.tenants[fut.Tenant]
	sched, err := fut.Wait()
	if err != nil {
		srv.failed++
		ts.Failed++
		return
	}
	srv.completed++
	ts.Completed++
	if sched.Makespan > ts.LastFinish {
		ts.LastFinish = sched.Makespan
	}
	if sched.Makespan > srv.makespan {
		srv.makespan = sched.Makespan
	}
	ts.Reschedules += sched.Adapt.Reschedules
	ts.Fallbacks += sched.Adapt.Fallbacks
	for v, n := range sched.Adapt.VariantCounts {
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

// Shutdown refuses new submissions, stops the engine, and returns the
// final stats, which count every Submit that returned before Shutdown was
// called. Calling Shutdown on a server that was never started first
// starts the engine, so submissions queued before Start are still served
// instead of failing.
func (srv *Server) Shutdown() ServerStats {
	srv.mu.Lock()
	if !srv.closed {
		srv.closed = true
		if !srv.started {
			srv.started = true
			_ = srv.eng.Start()
		}
		// A batch whose Start failed is failed by the engine's Shutdown.
		srv.eng.Shutdown()
		srv.recordEarly()
	}
	srv.mu.Unlock()
	return srv.Stats()
}

// SerialMakespan models the back-to-back baseline: each workflow served
// alone on a fresh engine over the SDK's cluster, one after another, so
// the total is the sum of the individual makespans. It is the denominator
// of the multiplexing speedup `basecamp serve` and the benchmarks report.
// Each engine takes ownership of the cluster (see runtime.NewEngine), so
// call it while no server is serving on it.
func (s *SDK) SerialMakespan(policy runtime.Policy, ws ...*runtime.Workflow) (float64, error) {
	total := 0.0
	for i, w := range ws {
		sched, err := runtime.ServeAlone(s.Cluster, s.Registry, runtime.EngineConfig{Policy: policy}, w)
		if err != nil {
			return 0, fmt.Errorf("sdk: serving workflow %d alone: %w", i, err)
		}
		total += sched.Makespan
	}
	return total, nil
}
