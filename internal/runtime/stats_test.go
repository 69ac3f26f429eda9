package runtime

import (
	"testing"

	"everest/internal/platform"
)

func TestEngineStatsLifecycle(t *testing.T) {
	c := platform.NewCluster(
		platform.NewNode("n0", platform.XeonModel(), platform.AlveoU55C()),
		platform.NewNode("n1", platform.XeonModel()),
	)
	e := NewEngine(c, EngineConfig{})

	st := e.Stats()
	if st.Submitted != 0 || st.Active != 0 {
		t.Fatalf("pre-start stats should be zero, got %+v", st)
	}
	if st.OnlineDevices != 1 {
		t.Fatalf("online devices = %d, want 1", st.OnlineDevices)
	}
	if st.ProgrammedOnline != 0 {
		t.Fatalf("programmed devices = %d, want 0 (nothing staged)", st.ProgrammedOnline)
	}

	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "a", Flops: 1e9, OutputBytes: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	if err := w.Submit(TaskSpec{Name: "b", Deps: []string{"a"}, Flops: 1e9}); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(w, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()

	st = e.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.Failed != 0 {
		t.Fatalf("submitted/completed/failed = %d/%d/%d, want 1/1/0",
			st.Submitted, st.Completed, st.Failed)
	}
	assertIdle(t, e, "after Shutdown")
	if st.Backlog <= 0 {
		t.Fatalf("backlog frontier should advance past served work, got %g", st.Backlog)
	}
}

// assertIdle fails unless e is idle: no workflow in flight, no ready item,
// no pending task and every node queue and the head heap empty. Start,
// Submit and Shutdown return with the engine idle, so Apply, which runs
// between them, never finds a placement to invalidate.
func assertIdle(t *testing.T, e *Engine, when string) {
	t.Helper()
	if st := e.Stats(); st.Active != 0 || st.ReadyTasks != 0 || st.PendingTasks != 0 {
		t.Fatalf("%s: engine not idle: %+v", when, st)
	}
	if e.ds == nil {
		return
	}
	for ni, q := range e.queues {
		if _, queued := q.peek(); queued {
			t.Fatalf("%s: node %d still has a queued request", when, ni)
		}
	}
	if e.ds.heap.Len() != 0 || len(e.ds.active) != 0 {
		t.Fatalf("%s: %d heap heads and %d active workflows left", when, e.ds.heap.Len(), len(e.ds.active))
	}
}

// TestEngineIdleAfterFaultedAdaptiveServes: an adaptive engine serving
// FPGA chains through a scripted mid-run unplug, replug and slowdown, from
// a pre-Start batch and one Submit at a time, is idle whenever Start,
// Submit or Shutdown returns.
func TestEngineIdleAfterFaultedAdaptiveServes(t *testing.T) {
	cluster, bs := programmedCluster(t, 3)
	if _, err := cluster.Nodes[1].Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	n0 := cluster.Nodes[0].Name
	// An FPGA task takes about 0.45 ms, so the unplug lands inside the
	// pre-Start batch and the replug inside the Submits that follow.
	const unplugAt, plugAt = 0.002, 0.01
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true, Events: []EnvEvent{
		{Kind: EnvUnplug, Node: n0, At: unplugAt},
		{Kind: EnvSlowdown, Node: cluster.Nodes[2].Name, Factor: 6, At: unplugAt},
		{Kind: EnvPlug, Node: n0, At: plugAt},
	}})
	futs := make([]*Future, 0, 12)
	for i := 0; i < 4; i++ {
		fut, err := e.Submit(fpgaChain(t, 3, bs.ID), SubmitOptions{Tenant: taskName(i % 2)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	assertIdle(t, e, "after Start")
	for i := 0; i < 8; i++ {
		fut, err := e.Submit(fpgaChain(t, 4, bs.ID), SubmitOptions{Tenant: taskName(i % 3)})
		if err != nil {
			t.Fatal(err)
		}
		assertIdle(t, e, "after Submit")
		futs = append(futs, fut)
	}
	e.Shutdown()
	assertIdle(t, e, "after Shutdown")
	if st := e.Stats(); st.Completed != 12 || st.Failed != 0 {
		t.Fatalf("completed/failed = %d/%d, want 12/0", st.Completed, st.Failed)
	}
	// The run is faulted: node 0's accelerator serves before the unplug
	// and no task in between, while node 1's keeps serving.
	var before, during, after int
	for _, fut := range futs {
		sched, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if sched.Adapt.Fallbacks != 0 {
			t.Errorf("%s paid %d fallbacks, want 0", fut.Name, sched.Adapt.Fallbacks)
		}
		for _, a := range sched.Assignments {
			switch {
			case !a.OnFPGA || a.Start >= plugAt:
			case a.Node != n0:
				if a.Start >= unplugAt {
					after++
				}
			case a.Start < unplugAt:
				before++
			default:
				during++
			}
		}
	}
	if before == 0 || during != 0 || after == 0 {
		t.Errorf("FPGA tasks on node 0 before and during the unplug, and elsewhere during it = %d/%d/%d, want >0/0/>0",
			before, during, after)
	}
}

func TestEngineStatsCountsFailures(t *testing.T) {
	c := platform.NewCluster(platform.NewNode("n0", platform.XeonModel()))
	e := NewEngine(c, EngineConfig{
		Failures: []NodeFailure{{Node: "n0", AtTime: 0}},
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	w := NewWorkflow()
	if err := w.Submit(TaskSpec{Name: "a", Flops: 1e9}); err != nil {
		t.Fatal(err)
	}
	fut, err := e.Submit(w, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Fatal("workflow on an all-dead cluster should fail")
	}
	e.Shutdown()
	st := e.Stats()
	if st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("failed/completed = %d/%d, want 1/0", st.Failed, st.Completed)
	}
	if st.OnlineDevices != 0 {
		t.Fatalf("failed node's devices should not count online, got %d", st.OnlineDevices)
	}
}

// TestEngineStatsPublishedBeforeWait drives submit-and-wait rounds and
// reads Stats the moment each Wait returns: the snapshot must already
// count the completion and reach the workflow's makespan. Guaranteed-class
// admission reads Backlog at exactly that moment, so a stale snapshot
// would understate the bound it proves.
func TestEngineStatsPublishedBeforeWait(t *testing.T) {
	c := platform.NewCluster(platform.NewNode("n0", platform.XeonModel()))
	e := NewEngine(c, EngineConfig{})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	for i := 0; i < 2000; i++ {
		w := NewWorkflow()
		if err := w.Submit(TaskSpec{Name: "a", Flops: 1e6}); err != nil {
			t.Fatal(err)
		}
		fut, err := e.Submit(w, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if st.Completed != i+1 || st.Backlog < sched.Makespan {
			t.Fatalf("round %d: stats completed=%d backlog=%g after Wait, want %d and >= %g",
				i, st.Completed, st.Backlog, i+1, sched.Makespan)
		}
	}
}
