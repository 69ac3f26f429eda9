package sdk

import (
	"fmt"
	goruntime "runtime"
	"testing"

	"everest/internal/runtime"
)

// TestTallyOf: the fold counts every future once, per tenant, and a
// future that failed or was never served counts as failed.
func TestTallyOf(t *testing.T) {
	const workflows = 12
	s := New(DefaultCluster(4))
	eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT})
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	futs := make([]*runtime.Future, workflows)
	for i := range futs {
		tenant := []string{"wrf", "traffic", "energy"}[i%3]
		fut, err := eng.Submit(SyntheticWorkflow(i), runtime.SubmitOptions{Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	eng.Shutdown()
	st := TallyOf(futs)
	if st.Submitted != workflows || st.Completed != workflows || st.Failed != 0 {
		t.Errorf("tally = %+v, want %d submitted+completed", st, workflows)
	}
	if len(st.Tenants) != 3 {
		t.Errorf("tenant stats = %v, want 3 tenants", st.Tenants)
	}
	last := 0.0
	for name, ts := range st.Tenants {
		if ts.Submitted != ts.Completed || ts.Completed != workflows/3 {
			t.Errorf("tenant %s: %+v, want %d completed", name, ts, workflows/3)
		}
		last = max(last, ts.LastFinish)
	}
	if st.Makespan <= 0 || st.Makespan != last {
		t.Errorf("makespan %g, want the latest tenant finish %g", st.Makespan, last)
	}

	// An engine shut down before Start fails its queued futures.
	idle := runtime.NewEngine(s.Cluster, runtime.EngineConfig{})
	fut, err := idle.Submit(SyntheticWorkflow(0), runtime.SubmitOptions{Tenant: "wrf"})
	if err != nil {
		t.Fatal(err)
	}
	idle.Shutdown()
	st = TallyOf(append(futs, fut))
	if st.Submitted != workflows+1 || st.Failed != 1 || st.Tenants["wrf"].Failed != 1 {
		t.Errorf("tally with a failed future = %+v, want 1 failed wrf submission", st)
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
		t.Fatal("batch makespan must be positive")
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

// batchMakespan pre-loads a batch of synthetic workflows on an engine
// before Start, so it places the queued submissions together
// (round-robin), and returns the served batch's makespan. The names are
// those BENCH_2 submits: a workflow's name breaks ties in the engine.
func batchMakespan(t *testing.T, workflows int) float64 {
	t.Helper()
	s := New(DefaultCluster(8))
	eng := runtime.NewEngine(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT})
	futs := make([]*runtime.Future, workflows)
	for i := range futs {
		// Fresh workflows: the engine forbids reuse after submission by
		// contract.
		fut, err := eng.Submit(SyntheticWorkflow(i), runtime.SubmitOptions{Name: fmt.Sprintf("bench/wf%d", i+1), Tenant: "bench"})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	eng.Shutdown()
	st := TallyOf(futs)
	if st.Failed != 0 {
		t.Fatalf("batch of %d: %d failed", workflows, st.Failed)
	}
	return st.Makespan
}

// TestServerPreStartBatchIsDeterministic: submissions made before Start
// reach the engine in submit order and Start serves them on its caller's
// goroutine, so the batch makespan is one number at any GOMAXPROCS. It is
// pinned: BENCH_2's speedup_x8 (3.051) is the pinned serial baseline over
// this number.
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
	const want = 0.85046106684848488
	if spans[0] != want {
		t.Errorf("batch makespan %.17g, want %.17g", spans[0], want)
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
