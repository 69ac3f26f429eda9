package sdk

import (
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"everest/internal/runtime"
)

func TestServerConcurrentSubmissions(t *testing.T) {
	const workflows = 12
	s := New(DefaultCluster(4))
	srv := s.NewServer(ServerConfig{Policy: runtime.PolicyHEFT})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	subs := make([]*Submission, workflows)
	for i := 0; i < workflows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := []string{"wrf", "traffic", "energy"}[i%3]
			sub, err := srv.Submit(tenant, "", SyntheticWorkflow(i))
			if err != nil {
				t.Error(err)
				return
			}
			subs[i] = sub
		}(i)
	}
	wg.Wait()
	for i, sub := range subs {
		if sub == nil {
			t.Fatalf("submission %d missing", i)
		}
		sched, err := sub.Wait()
		if err != nil {
			t.Fatalf("workflow %d: %v", i, err)
		}
		if len(sched.Assignments) == 0 || sched.Makespan <= 0 {
			t.Errorf("workflow %d: empty schedule %+v", i, sched)
		}
	}
	stats := srv.Shutdown()
	if stats.Submitted != workflows || stats.Completed != workflows || stats.Failed != 0 {
		t.Errorf("stats = %+v, want %d submitted+completed", stats, workflows)
	}
	if len(stats.Tenants) != 3 {
		t.Errorf("tenant stats = %v, want 3 tenants", stats.Tenants)
	}
	for name, ts := range stats.Tenants {
		if ts.Submitted != ts.Completed || ts.Completed != workflows/3 {
			t.Errorf("tenant %s: %+v, want %d completed", name, ts, workflows/3)
		}
	}
}

// TestServerThroughputSpeedup is the acceptance check of the concurrent
// runtime: N=8 concurrent workflows must finish (in modelled time) at least
// 2x faster than the same workflows run back-to-back through the serial
// planner.
func TestServerThroughputSpeedup(t *testing.T) {
	const workflows = 8
	ws := make([]*runtime.Workflow, workflows)
	for i := range ws {
		ws[i] = SyntheticWorkflow(i)
	}
	// 8 compute nodes: wide enough that serial back-to-back execution leaves
	// most of the cluster idle, which is exactly the capacity the engine's
	// multiplexing reclaims.
	s := New(DefaultCluster(8))
	serial, err := s.SerialMakespan(runtime.PolicyHEFT, ws...)
	if err != nil {
		t.Fatal(err)
	}

	makespan := batchMakespan(t, workflows)
	if makespan <= 0 {
		t.Fatal("server makespan must be positive")
	}
	speedup := serial / makespan
	t.Logf("serial %.3gs, concurrent %.3gs, speedup %.2fx", serial, makespan, speedup)
	if speedup < 2 {
		t.Errorf("multiplexing speedup %.2fx, want >= 2x", speedup)
	}
}

// batchMakespan pre-loads a batch of synthetic workflows before Start, so
// the engine places the queued submissions together (round-robin), and
// returns the served batch's makespan.
func batchMakespan(t *testing.T, workflows int) float64 {
	t.Helper()
	srv := New(DefaultCluster(8)).NewServer(ServerConfig{Policy: runtime.PolicyHEFT})
	subs := make([]*Submission, workflows)
	for i := range subs {
		// Fresh workflows: the engine forbids reuse after submission by
		// contract.
		sub, err := srv.Submit("bench", "", SyntheticWorkflow(i))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if _, err := sub.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return srv.Shutdown().Makespan
}

// TestServerPreStartBatchIsDeterministic: submissions made before Start
// reach the engine in submit order, whatever the scheduler does with the
// per-submission goroutines, so the batch makespan is one number.
func TestServerPreStartBatchIsDeterministic(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	var spans []float64
	for _, procs := range []int{1, 2, 1, 2} {
		goruntime.GOMAXPROCS(procs)
		spans = append(spans, batchMakespan(t, 8))
	}
	for i, m := range spans {
		if m != spans[0] {
			t.Fatalf("batch makespans %v differ (run %d)", spans, i)
		}
	}
}

func TestServerConcurrencyLimit(t *testing.T) {
	const workflows = 10
	s := New(DefaultCluster(2))
	srv := s.NewServer(ServerConfig{Policy: runtime.PolicyHEFT, MaxConcurrent: 2})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	subs := make([]*Submission, workflows)
	for i := 0; i < workflows; i++ {
		sub, err := srv.Submit("t", "", SyntheticWorkflow(i))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	for i, sub := range subs {
		if _, err := sub.Wait(); err != nil {
			t.Fatalf("workflow %d: %v", i, err)
		}
	}
	stats := srv.Shutdown()
	if stats.Completed != workflows {
		t.Errorf("completed %d, want %d", stats.Completed, workflows)
	}
}

func TestServerFailureRecovery(t *testing.T) {
	s := New(DefaultCluster(3))
	srv := s.NewServer(ServerConfig{
		Policy:   runtime.PolicyHEFT,
		Failures: []runtime.NodeFailure{{Node: "node00", AtTime: 0.0005}},
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	var subs []*Submission
	for i := 0; i < 6; i++ {
		sub, err := srv.Submit("t", "", SyntheticWorkflow(i))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	restarts := 0
	for i, sub := range subs {
		sched, err := sub.Wait()
		if err != nil {
			t.Fatalf("workflow %d must survive a single node failure: %v", i, err)
		}
		for _, a := range sched.Assignments {
			if a.Node == "node00" && a.End > 0.0005 {
				t.Errorf("workflow %d ran %s on the dead node", i, a.Task)
			}
			if a.Restart {
				restarts++
			}
		}
	}
	srv.Shutdown()
	if restarts == 0 {
		t.Error("the injected failure must cause at least one restart across the batch")
	}
}

func TestServerSubmitErrors(t *testing.T) {
	s := New(DefaultCluster(1))
	srv := s.NewServer(ServerConfig{})
	if _, err := srv.Submit("t", "", nil); err == nil {
		t.Error("nil workflow must fail")
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err == nil {
		t.Error("double start must fail")
	}
	srv.Shutdown()
	if _, err := srv.Submit("t", "", SyntheticWorkflow(0)); err == nil {
		t.Error("submit after shutdown must fail")
	}
}

func TestServerShutdownWithoutStartDrains(t *testing.T) {
	// Forgetting Start must not hang Shutdown or the submission's waiter:
	// Shutdown brings the engine up, drains the queued workflow, then stops.
	s := New(DefaultCluster(1))
	srv := s.NewServer(ServerConfig{})
	sub, err := srv.Submit("t", "", SyntheticWorkflow(0))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan ServerStats, 1)
	go func() { done <- srv.Shutdown() }()
	select {
	case stats := <-done:
		if stats.Completed != 1 {
			t.Errorf("queued workflow must complete during shutdown, stats %+v", stats)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown hung on a never-started server")
	}
	if _, err := sub.Wait(); err != nil {
		t.Errorf("queued submission must resolve: %v", err)
	}
}

func TestSyntheticWorkflowShapes(t *testing.T) {
	sizes := map[int]int{0: 3, 1: 6, 2: 4}
	for i := 0; i < 9; i++ {
		w := SyntheticWorkflow(i)
		if w.Len() != sizes[i%3] {
			t.Errorf("workflow %d has %d tasks, want %d", i, w.Len(), sizes[i%3])
		}
	}
}

// TestServerControlAPIForwards covers the engine control wrappers: the
// server-level unplug/plug/slowdown calls flip platform state and reject
// unknown nodes.
func TestServerControlAPIForwards(t *testing.T) {
	s := New(DefaultCluster(2))
	srv := s.NewServer(ServerConfig{})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if err := srv.UnplugDevice("node00", 0, 0.1); err != nil {
		t.Fatal(err)
	}
	if s.Cluster.Nodes[0].DeviceOnline(0) {
		t.Fatal("device should be detached")
	}
	if err := srv.PlugDevice("node00", 0, 0.2); err != nil {
		t.Fatal(err)
	}
	if !s.Cluster.Nodes[0].DeviceOnline(0) {
		t.Fatal("device should be reattached")
	}
	if err := srv.SetNodeSlowdown("node01", 2.5, 0.3); err != nil {
		t.Fatal(err)
	}
	if got := s.Cluster.Nodes[1].Slowdown(); got != 2.5 {
		t.Fatalf("slowdown = %g, want 2.5", got)
	}
	for _, err := range []error{
		srv.UnplugDevice("ghost", 0, 0),
		srv.PlugDevice("ghost", 0, 0),
		srv.SetNodeSlowdown("ghost", 2, 0),
	} {
		if err == nil {
			t.Fatal("unknown node accepted by control API")
		}
	}
	sub, err := srv.Submit("t0", "", SyntheticWorkflow(0))
	if err != nil {
		t.Fatal(err)
	}
	<-sub.Done()
	if _, err := sub.Wait(); err != nil {
		t.Fatal(err)
	}
}
