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
	if st.Active != 0 || st.ReadyTasks != 0 || st.PendingTasks != 0 {
		t.Fatalf("drained engine should be idle, got %+v", st)
	}
	if st.Backlog <= 0 {
		t.Fatalf("backlog frontier should advance past served work, got %g", st.Backlog)
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
