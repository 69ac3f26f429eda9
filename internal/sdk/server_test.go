package sdk

import (
	goruntime "runtime"
	"sync"
	"testing"

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
	futs := make([]*runtime.Future, workflows)
	for i := 0; i < workflows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := []string{"wrf", "traffic", "energy"}[i%3]
			fut, err := srv.Submit(tenant, "", SyntheticWorkflow(i))
			if err != nil {
				t.Error(err)
				return
			}
			futs[i] = fut
		}(i)
	}
	wg.Wait()
	for i, fut := range futs {
		if fut == nil {
			t.Fatalf("submission %d missing", i)
		}
		sched, err := fut.Wait()
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
// 2x faster than the same workflows run back-to-back, each served alone.
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

// TestSerialMakespanPinned pins the back-to-back baseline exactly. BENCH_2
// gates only the speedup ratio, so a placement change in the engine could
// move numerator and denominator together unnoticed; this catches the
// denominator drifting.
func TestSerialMakespanPinned(t *testing.T) {
	for _, tc := range []struct {
		workflows int
		policy    runtime.Policy
		want      float64
	}{
		{8, runtime.PolicyHEFT, 2.5949479010909089}, // the BENCH_2 speedup_x8 batch
		{16, runtime.PolicyHEFT, 5.3071786272727266},
		{16, runtime.PolicyFIFO, 7.9697812509090928},
	} {
		ws := make([]*runtime.Workflow, tc.workflows)
		for i := range ws {
			ws[i] = SyntheticWorkflow(i)
		}
		got, err := New(DefaultCluster(8)).SerialMakespan(tc.policy, ws...)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%d workflows, %s: serial makespan %.17g, want %.17g", tc.workflows, tc.policy, got, tc.want)
		}
	}
}

// batchMakespan pre-loads a batch of synthetic workflows before Start, so
// the engine places the queued submissions together (round-robin), and
// returns the served batch's makespan.
func batchMakespan(t *testing.T, workflows int) float64 {
	t.Helper()
	srv := New(DefaultCluster(8)).NewServer(ServerConfig{Policy: runtime.PolicyHEFT})
	futs := make([]*runtime.Future, workflows)
	for i := range futs {
		// Fresh workflows: the engine forbids reuse after submission by
		// contract.
		fut, err := srv.Submit("bench", "", SyntheticWorkflow(i))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return srv.Shutdown().Makespan
}

// TestServerPreStartBatchIsDeterministic: submissions made before Start
// reach the engine in submit order and Start serves them on its caller's
// goroutine, so the batch makespan is one number at any GOMAXPROCS.
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

// TestServerStartsNoGoroutine: every Server call runs on its caller's
// goroutine, before and after Start.
func TestServerStartsNoGoroutine(t *testing.T) {
	const workflows = 16
	before := goruntime.NumGoroutine()
	check := func(when string) {
		t.Helper()
		if n := goruntime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines, %d before NewServer", when, n, before)
		}
	}
	srv := New(DefaultCluster(4)).NewServer(ServerConfig{Policy: runtime.PolicyHEFT})
	check("NewServer")
	for i := 0; i < workflows; i++ {
		if _, err := srv.Submit("early", "", SyntheticWorkflow(i)); err != nil {
			t.Fatal(err)
		}
	}
	check("pre-Start Submit")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	check("Start")
	for i := 0; i < workflows; i++ {
		fut, err := srv.Submit("late", "", SyntheticWorkflow(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	check("post-Start Submit+Wait")
	if st := srv.Shutdown(); st.Completed != 2*workflows {
		t.Fatalf("completed %d, want %d", st.Completed, 2*workflows)
	}
	check("Shutdown")
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
	var futs []*runtime.Future
	for i := 0; i < 6; i++ {
		fut, err := srv.Submit("t", "", SyntheticWorkflow(i))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	restarts := 0
	for i, fut := range futs {
		sched, err := fut.Wait()
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
	// Forgetting Start must not lose the queued workflow: Shutdown brings
	// the engine up, serves the batch, then stops.
	s := New(DefaultCluster(1))
	srv := s.NewServer(ServerConfig{})
	fut, err := srv.Submit("t", "", SyntheticWorkflow(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Fatal("Wait before the engine served the workflow must fail, not block")
	}
	if stats := srv.Shutdown(); stats.Completed != 1 {
		t.Errorf("queued workflow must complete during shutdown, stats %+v", stats)
	}
	if _, err := fut.Wait(); err != nil {
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
	fut, err := srv.Submit("t0", "", SyntheticWorkflow(0))
	if err != nil {
		t.Fatal(err)
	}
	if fut.Name != "t0/wf1" || fut.Tenant != "t0" {
		t.Fatalf("future names %q of tenant %q, want t0/wf1 of t0", fut.Name, fut.Tenant)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Completed != 1 {
		t.Fatalf("a served submission must be recorded before Submit returns, stats %+v", st)
	}
}
