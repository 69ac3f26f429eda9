package runtime

import (
	"sync"
	"testing"
	"time"

	"everest/internal/platform"
)

// assignmentsByTask returns the (final) assignment of each task.
func assignmentsByTask(s *Schedule) map[string]Assignment {
	m := make(map[string]Assignment, len(s.Assignments))
	for _, a := range s.Assignments {
		m[a.Task] = a
	}
	return m
}

func startEngine(t *testing.T, cluster *platform.Cluster, cfg EngineConfig) *Engine {
	t.Helper()
	e := NewEngine(cluster, cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineSingleWorkflowRespectsDependencies(t *testing.T) {
	e := startEngine(t, testCluster(3), EngineConfig{Policy: PolicyHEFT})
	w := chainWorkflow(t, 5)
	fut, err := e.Submit(w, SubmitOptions{Name: "chain"})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != 5 {
		t.Fatalf("got %d assignments, want 5", len(sched.Assignments))
	}
	byTask := assignmentsByTask(sched)
	for i := 1; i < 5; i++ {
		prev, cur := byTask[taskName(i-1)], byTask[taskName(i)]
		if cur.Start < prev.End-1e-12 {
			t.Errorf("task %d starts before its dependency ends: %g < %g", i, cur.Start, prev.End)
		}
	}
	if sched.Makespan <= 0 {
		t.Error("makespan must be positive")
	}
}

func TestEngineEmptyWorkflow(t *testing.T) {
	e := startEngine(t, testCluster(1), EngineConfig{})
	fut, err := e.Submit(NewWorkflow(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil || sched.Makespan != 0 || len(sched.Assignments) != 0 {
		t.Errorf("empty workflow: %+v %v", sched, err)
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	e := NewEngine(testCluster(1), EngineConfig{})
	if _, err := e.Submit(nil, SubmitOptions{}); err == nil {
		t.Error("nil workflow must fail")
	}
	// Submissions before Start queue up and run once the engine starts.
	early, err := e.Submit(NewWorkflow(), SubmitOptions{Name: "early"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := early.Wait(); err != nil {
		t.Errorf("pre-start submission must complete: %v", err)
	}
	if err := e.Start(); err == nil {
		t.Error("double start must fail")
	}
	e.Shutdown()
	e.Shutdown() // second shutdown is a no-op
	if _, err := e.Submit(NewWorkflow(), SubmitOptions{}); err == nil {
		t.Error("submit after shutdown must fail")
	}
	empty := NewEngine(platform.NewCluster(), EngineConfig{})
	if err := empty.Start(); err == nil {
		t.Error("engine over an empty cluster must refuse to start")
	}
}

func TestEngineConcurrentSubmissions(t *testing.T) {
	const workflows = 16
	e := startEngine(t, testCluster(4), EngineConfig{Policy: PolicyHEFT})
	var wg sync.WaitGroup
	scheds := make([]*Schedule, workflows)
	errs := make([]error, workflows)
	for i := 0; i < workflows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorkflow()
			if err := w.Submit(TaskSpec{Name: "a", Flops: 1e9, OutputBytes: 1 << 20}); err != nil {
				errs[i] = err
				return
			}
			if err := w.Submit(TaskSpec{Name: "b", Deps: []string{"a"},
				Flops: 2e9, InputBytes: 1 << 20}); err != nil {
				errs[i] = err
				return
			}
			fut, err := e.Submit(w, SubmitOptions{Tenant: string(rune('A' + i%4))})
			if err != nil {
				errs[i] = err
				return
			}
			scheds[i], errs[i] = fut.Wait()
		}(i)
	}
	wg.Wait()
	e.Shutdown()
	for i := 0; i < workflows; i++ {
		if errs[i] != nil {
			t.Fatalf("workflow %d: %v", i, errs[i])
		}
		if len(scheds[i].Assignments) != 2 {
			t.Errorf("workflow %d: %d assignments, want 2", i, len(scheds[i].Assignments))
		}
		byTask := assignmentsByTask(scheds[i])
		if byTask["b"].Start < byTask["a"].End-1e-12 {
			t.Errorf("workflow %d: dependency violated", i)
		}
	}
}

// TestEngineMultiplexingBeatsSerial is the tentpole property: running N
// workflows through the concurrent engine must finish (in modelled time)
// well before running the same N workflows back-to-back, each served alone.
func TestEngineMultiplexingBeatsSerial(t *testing.T) {
	const workflows = 8
	mkWorkflow := func() *Workflow {
		w := NewWorkflow()
		if err := w.Submit(TaskSpec{Name: "prep", Flops: 2e9, OutputBytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if err := w.Submit(TaskSpec{Name: "compute", Deps: []string{"prep"},
			Flops: 4e10, InputBytes: 1 << 20, OutputBytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		if err := w.Submit(TaskSpec{Name: "post", Deps: []string{"compute"},
			Flops: 1e9, InputBytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
		return w
	}

	// Serial baseline: each workflow served alone, executed back-to-back.
	serial := 0.0
	for i := 0; i < workflows; i++ {
		serial += serveAlone(t, testCluster(4), EngineConfig{Policy: PolicyHEFT}, mkWorkflow()).Makespan
	}

	e := startEngine(t, testCluster(4), EngineConfig{Policy: PolicyHEFT})
	futs := make([]*Future, workflows)
	for i := 0; i < workflows; i++ {
		fut, err := e.Submit(mkWorkflow(), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	concurrent := 0.0
	for _, fut := range futs {
		sched, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if sched.Makespan > concurrent {
			concurrent = sched.Makespan
		}
	}
	e.Shutdown()
	if concurrent <= 0 {
		t.Fatal("concurrent makespan must be positive")
	}
	if speedup := serial / concurrent; speedup < 2 {
		t.Errorf("multiplexing speedup %.2fx, want >= 2x (serial %.3gs, concurrent %.3gs)",
			speedup, serial, concurrent)
	}
}

func TestEngineFailureRescheduling(t *testing.T) {
	cluster := testCluster(3)
	victim := cluster.Nodes[0].Name
	var mu sync.Mutex
	var events []Event
	e := startEngine(t, cluster, EngineConfig{
		Policy:   PolicyHEFT,
		Failures: []NodeFailure{{Node: victim, AtTime: 0.001}},
		Trace: func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	fut, err := e.Submit(chainWorkflow(t, 6), SubmitOptions{Name: "chain"})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Assignments) != 6 {
		t.Fatalf("got %d assignments, want 6", len(sched.Assignments))
	}
	restarts := 0
	for _, a := range sched.Assignments {
		if a.Node == victim && a.End > 0.001 {
			t.Errorf("task %s completed on the dead node after its failure", a.Task)
		}
		if a.Restart {
			restarts++
			if a.Start < 0.001 {
				t.Errorf("restarted task %s starts before the failure was observed", a.Task)
			}
		}
	}
	if restarts == 0 {
		t.Error("failure must cause at least one restart")
	}
	sawFailure, sawReschedule := false, false
	mu.Lock()
	for _, ev := range events {
		switch ev.Kind {
		case EventNodeFailure:
			sawFailure = true
		case EventReschedule:
			sawReschedule = true
		}
	}
	mu.Unlock()
	if !sawFailure || !sawReschedule {
		t.Errorf("trace must record failure and reschedule events (failure=%v reschedule=%v)",
			sawFailure, sawReschedule)
	}
}

func TestEngineShutdownDrainsLostBacklog(t *testing.T) {
	// All nodes dead plus a workflow with far more ready tasks than the
	// report channel buffers: the workflow fails as soon as the first loss
	// is observed, and Shutdown must still drain the executors' remaining
	// lost-task reports instead of deadlocking.
	cluster := testCluster(1)
	e := startEngine(t, cluster, EngineConfig{
		Failures: []NodeFailure{{Node: cluster.Nodes[0].Name, AtTime: 0}},
	})
	w := NewWorkflow()
	for i := 0; i < 100; i++ {
		if err := w.Submit(TaskSpec{Name: taskName(i), Flops: 1e9}); err != nil {
			t.Fatal(err)
		}
	}
	fut, err := e.Submit(w, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Error("workflow on an all-dead cluster must fail")
	}
	done := make(chan struct{})
	go func() {
		e.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown deadlocked on the lost-task backlog")
	}
}

func TestEngineRestartClearsStaleFailures(t *testing.T) {
	// A second engine over the same cluster must not inherit the first
	// run's injected node failure.
	cluster := testCluster(2)
	victim := cluster.Nodes[0].Name
	e1 := startEngine(t, cluster, EngineConfig{
		Failures: []NodeFailure{{Node: victim, AtTime: 0.0001}},
	})
	fut, err := e1.Submit(chainWorkflow(t, 3), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	e1.Shutdown()

	e2 := startEngine(t, cluster, EngineConfig{})
	fut2, err := e2.Submit(chainWorkflow(t, 3), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut2.Wait()
	e2.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sched.Assignments {
		if a.Restart {
			t.Errorf("fresh engine inherited a stale failure: %+v", a)
		}
	}
}

func TestEngineTransfersNotDoubleCountedOnRestart(t *testing.T) {
	// A healthy run and a failure run of the same workflow: the failure run
	// re-places lost tasks, but completed transfer stats must stay in the
	// same ballpark, not double.
	w := func() *Workflow { return forkJoinWorkflow(t, 8) }
	e1 := startEngine(t, testCluster(3), EngineConfig{Policy: PolicyHEFT})
	fut, err := e1.Submit(w(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := fut.Wait()
	e1.Shutdown()
	if err != nil {
		t.Fatal(err)
	}

	cluster := testCluster(3)
	e2 := startEngine(t, cluster, EngineConfig{
		Policy:   PolicyHEFT,
		Failures: []NodeFailure{{Node: cluster.Nodes[0].Name, AtTime: 0.001}},
	})
	fut2, err := e2.Submit(w(), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	failed, err := fut2.Wait()
	e2.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	// One assignment per task in both runs: restarts replace, not append.
	if len(failed.Assignments) != len(clean.Assignments) {
		t.Errorf("failure run recorded %d assignments, clean run %d",
			len(failed.Assignments), len(clean.Assignments))
	}
	// The failure run moves somewhat more data (rescheduled placements may
	// pull deps again) but must not blow up to double-counted territory.
	if failed.MovedBytes > 2*clean.MovedBytes+1<<20 {
		t.Errorf("moved bytes look double-counted: clean %d, failed %d",
			clean.MovedBytes, failed.MovedBytes)
	}
}

func TestEngineAllNodesDeadFailsWorkflow(t *testing.T) {
	cluster := testCluster(1)
	e := startEngine(t, cluster, EngineConfig{
		Failures: []NodeFailure{{Node: cluster.Nodes[0].Name, AtTime: 0}},
	})
	fut, err := e.Submit(chainWorkflow(t, 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Error("workflow on an all-dead cluster must fail")
	}
	e.Shutdown()
}

func TestEngineFPGAOffload(t *testing.T) {
	cluster := testCluster(2)
	bs := fpgaBitstream()
	if _, err := cluster.Nodes[0].Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{
		Name: "mc", Flops: 5e11, InputBytes: 1 << 24, OutputBytes: 1 << 20,
		NeedsFPGA: true, BitstreamID: bs.ID,
	}); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(w, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	a := sched.Assignments[0]
	if !a.OnFPGA || a.Node != cluster.Nodes[0].Name {
		t.Errorf("FPGA task placed wrong: %+v", a)
	}
}

func TestEngineTenantFairness(t *testing.T) {
	// Two tenants submit identical bursts before the engine starts; round-
	// robin draining must not let either tenant finish its whole burst before
	// the other gets started, so their completion times stay comparable.
	const perTenant = 6
	e := NewEngine(testCluster(2), EngineConfig{Policy: PolicyHEFT})
	submit := func(tenant string) []*Future {
		var futs []*Future
		for i := 0; i < perTenant; i++ {
			w := NewWorkflow()
			if err := w.Submit(TaskSpec{Name: "work", Flops: 1e10}); err != nil {
				t.Fatal(err)
			}
			fut, err := e.Submit(w, SubmitOptions{Tenant: tenant})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
		return futs
	}
	futsA := submit("alice")
	futsB := submit("bob")
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	finish := func(futs []*Future) float64 {
		last := 0.0
		for _, f := range futs {
			sched, err := f.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if sched.Makespan > last {
				last = sched.Makespan
			}
		}
		return last
	}
	doneA, doneB := finish(futsA), finish(futsB)
	e.Shutdown()
	ratio := doneB / doneA
	if ratio < 1 {
		ratio = doneA / doneB
	}
	if ratio > 1.5 {
		t.Errorf("tenant completion skew %.2f too high (alice %.3g, bob %.3g)", ratio, doneA, doneB)
	}
}

func TestEngineBatchedTransfers(t *testing.T) {
	// A wide fork-join forces cross-node dependencies; the engine must batch
	// the join's incoming transfers per source node, so the number of
	// recorded transfers stays at most the number of other nodes.
	e := startEngine(t, testCluster(4), EngineConfig{Policy: PolicyHEFT})
	fut, err := e.Submit(forkJoinWorkflow(t, 12), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := fut.Wait()
	e.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Transfers == 0 {
		t.Error("cross-node fork-join must move data")
	}
	// 14 tasks, 12 of them feeding one join from at most 3 remote nodes:
	// un-batched accounting would record up to 12 join transfers alone.
	if sched.Transfers > 16 {
		t.Errorf("transfers = %d, batching per source node should keep this small", sched.Transfers)
	}
	if sched.MovedBytes == 0 {
		t.Error("moved bytes must be recorded")
	}
}

// TestEnginesShareOneWorkflow serves one *Workflow from two adaptive
// engines on separate clusters at once: the specs and dependency indices
// the engines share are only read, so under -race the two runs neither
// race nor disturb each other, and both produce the same schedules.
func TestEnginesShareOneWorkflow(t *testing.T) {
	w := fpgaChain(t, 4, fpgaBitstream().ID)
	const rounds = 20
	var scheds [2][]*Schedule
	var wg sync.WaitGroup
	for i := range scheds {
		cluster, _ := programmedCluster(t, 2)
		e := startEngine(t, cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true})
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.Shutdown()
			for r := 0; r < rounds; r++ {
				fut, err := e.Submit(w, SubmitOptions{Name: "shared"})
				if err != nil {
					t.Error(err)
					return
				}
				sched, err := fut.Wait()
				if err != nil {
					t.Error(err)
					return
				}
				scheds[i] = append(scheds[i], sched)
			}
		}()
	}
	wg.Wait()
	if len(scheds[0]) != rounds || len(scheds[1]) != rounds {
		t.Fatalf("served %d and %d rounds, want %d each", len(scheds[0]), len(scheds[1]), rounds)
	}
	for r := range scheds[0] {
		a, b := scheds[0][r], scheds[1][r]
		if a.Makespan != b.Makespan || len(a.Assignments) != len(b.Assignments) {
			t.Fatalf("round %d: makespans %g vs %g", r, a.Makespan, b.Makespan)
		}
		for k := range a.Assignments {
			if a.Assignments[k] != b.Assignments[k] {
				t.Fatalf("round %d: assignment %d differs: %+v vs %+v", r, k, a.Assignments[k], b.Assignments[k])
			}
		}
	}
}
