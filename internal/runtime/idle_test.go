package runtime

import (
	"testing"

	"everest/internal/platform"
)

// TestEngineBacklogLifecycle: the backlog frontier is zero before Start
// and reaches a served workflow's makespan, and the engine is idle after
// Shutdown.
func TestEngineBacklogLifecycle(t *testing.T) {
	c := platform.NewCluster(
		platform.NewNode("n0", platform.XeonModel(), platform.AlveoU55C()),
		platform.NewNode("n1", platform.XeonModel()),
	)
	e := NewEngine(c, EngineConfig{})
	if got := e.Backlog(); got != 0 {
		t.Fatalf("pre-start backlog = %g, want 0", got)
	}
	assertIdle(t, e, "before Start")

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
	sched, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	assertIdle(t, e, "after Shutdown")
	if got := e.Backlog(); got <= 0 || got != sched.Makespan {
		t.Fatalf("backlog frontier = %g, want the served makespan %g", got, sched.Makespan)
	}
}

// assertIdle fails unless e is idle: no workflow in flight, no ready item,
// and every node queue and the head heap empty. Start, Submit and
// Shutdown return with the engine idle, so Apply, which runs between them,
// never finds a placement to invalidate.
func assertIdle(t *testing.T, e *Engine, when string) {
	t.Helper()
	if e.ds == nil {
		return
	}
	for ni, q := range e.queues {
		if _, queued := q.peek(); queued {
			t.Fatalf("%s: node %d still has a queued request", when, ni)
		}
	}
	if e.ds.heap.Len() != 0 || len(e.ds.active) != 0 || e.ds.readyCount != 0 {
		t.Fatalf("%s: %d heap heads, %d active workflows and %d ready items left",
			when, e.ds.heap.Len(), len(e.ds.active), e.ds.readyCount)
	}
}

// An FPGA task takes about 0.45 ms, so in serveReplug the unplug lands
// inside the pre-Start batch and the replug inside the Submits that
// follow.
const replugUnplugAt, replugPlugAt = 0.002, 0.01

// serveReplug serves FPGA chains on an adaptive engine over three nodes,
// the test bitstream programmed on nodes 0 and 1, whose script unplugs
// node 0's accelerator at replugUnplugAt, slows node 2 six-fold at the
// same moment and replugs node 0's at replugPlugAt: four chains from a
// pre-Start batch, then eight Submits one at a time. It calls check after
// Start and after each Submit, and returns the engine, still serving, with
// the twelve futures.
func serveReplug(t *testing.T, check func(e *Engine, when string)) (*Engine, []*Future) {
	t.Helper()
	cluster, bs := programmedCluster(t, 3)
	if _, err := cluster.Nodes[1].Program(0, -1, bs); err != nil {
		t.Fatal(err)
	}
	n0 := cluster.Nodes[0].Name
	e := NewEngine(cluster, EngineConfig{Policy: PolicyHEFT, Adaptive: true, Events: []EnvEvent{
		{Kind: EnvUnplug, Node: n0, At: replugUnplugAt},
		{Kind: EnvSlowdown, Node: cluster.Nodes[2].Name, Factor: 6, At: replugUnplugAt},
		{Kind: EnvPlug, Node: n0, At: replugPlugAt},
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
	check(e, "after Start")
	for i := 0; i < 8; i++ {
		fut, err := e.Submit(fpgaChain(t, 4, bs.ID), SubmitOptions{Tenant: taskName(i % 3)})
		if err != nil {
			t.Fatal(err)
		}
		check(e, "after Submit")
		futs = append(futs, fut)
	}
	return e, futs
}

// TestEngineIdleAfterFaultedAdaptiveServes: an adaptive engine serving
// FPGA chains through a scripted mid-run unplug, replug and slowdown, from
// a pre-Start batch and one Submit at a time, is idle whenever Start,
// Submit or Shutdown returns.
func TestEngineIdleAfterFaultedAdaptiveServes(t *testing.T) {
	e, futs := serveReplug(t, func(e *Engine, when string) { assertIdle(t, e, when) })
	n0 := e.nodes[0].Name
	e.Shutdown()
	assertIdle(t, e, "after Shutdown")
	if len(futs) != 12 {
		t.Fatalf("%d futures, want 12", len(futs))
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
			case !a.OnFPGA || a.Start >= replugPlugAt:
			case a.Node != n0:
				if a.Start >= replugUnplugAt {
					after++
				}
			case a.Start < replugUnplugAt:
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

// TestReplugGapPinned pins a placement gap in the adaptive engine as an
// exact count: place prices the fpga variant on a node only at that
// node's ready time. After serveReplug's replug, node 0's ready time
// still lies inside the window its accelerator was detached, because the
// node went idle there, so the fpga variant is never priced on it again,
// although a start on the replugged device would finish first. Node 0
// runs 0 of the FPGA tasks that start after the replug, and node 1's
// accelerator queues all 16. A fix that prices the variant at the
// device's own ready time flips the first count; it moves modelled
// numbers, and a change that widens the gap fails here.
func TestReplugGapPinned(t *testing.T) {
	e, futs := serveReplug(t, func(*Engine, string) {})
	e.Shutdown()
	onNode := map[string]int{}
	for _, fut := range futs {
		sched, err := fut.Wait()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range sched.Assignments {
			if a.OnFPGA && a.Start >= replugPlugAt {
				onNode[a.Node]++
			}
		}
	}
	n0, n1 := e.nodes[0].Name, e.nodes[1].Name
	if onNode[n0] != 0 || onNode[n1] != 16 || len(onNode) != 1 {
		t.Errorf("FPGA tasks after the replug by node = %v, want %s 0 and %s 16", onNode, n0, n1)
	}
}

// TestEngineFailedWorkflowLeavesIdle: a workflow on an all-dead cluster
// resolves with an error, and the engine it failed on is idle.
func TestEngineFailedWorkflowLeavesIdle(t *testing.T) {
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
	assertIdle(t, e, "after the failed Submit")
	e.Shutdown()
	assertIdle(t, e, "after Shutdown")
}

// TestEngineBacklogPublishedBeforeWait drives submit-and-wait rounds and
// reads Backlog the moment each Wait returns: it must already reach the
// workflow's makespan. Guaranteed-class admission reads Backlog at
// exactly that moment, so a stale frontier would understate the bound it
// proves.
func TestEngineBacklogPublishedBeforeWait(t *testing.T) {
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
		if got := e.Backlog(); got < sched.Makespan {
			t.Fatalf("round %d: backlog=%g after Wait, want >= %g", i, got, sched.Makespan)
		}
	}
}
