package runtime

import (
	"testing"
	"unsafe"

	"everest/internal/netsim"
)

// The PR-6 event core promises an allocation-free steady state: once an
// engine is running, the per-event work — pricing a transfer, placing a
// ready task, absorbing a completion report — must not touch the heap.
// These budgets are enforced by `go test ./...`, so a refactor that
// reintroduces a per-event allocation (a map rebuild, a sort scratch
// slice, an escaping closure) fails CI rather than silently eroding the
// wall-clock wins measured by BenchmarkSimulatorSpeed.

// stoppedEngine starts an engine — building the node index tables and work
// queues — and immediately shuts it down, leaving the test goroutine as
// the sole owner of the dispatch structures. That mirrors the serve lock's
// single-owner discipline, so driving place/onReport directly is exactly
// the production calling convention.
func stoppedEngine(t *testing.T, nodes int, cfg EngineConfig) *Engine {
	t.Helper()
	e := startEngine(t, testCluster(nodes), cfg)
	e.Shutdown()
	return e
}

func assertAllocs(t *testing.T, what string, budget float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > budget {
		t.Errorf("%s allocates %.1f per run, budget %.0f", what, got, budget)
	}
}

// TestAssignmentRecordSize pins the served schedule record, which every
// completed task of every workflow allocates, at 56 B on a 64-bit target:
// two names, two times, two flags and the one-byte variant.
func TestAssignmentRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned layout is the 64-bit one")
	}
	if got := unsafe.Sizeof(Assignment{}); got != 56 {
		t.Errorf("Assignment is %d B, want 56", got)
	}
}

func TestTransferSecondsAllocFree(t *testing.T) {
	flat := stoppedEngine(t, 3, EngineConfig{})
	assertAllocs(t, "transferSeconds (flat fabric)", 0, func() {
		flat.transferSeconds(nodeName(0), nodeName(1), 1<<20, 3)
	})
	stack := netsim.TCP10G()
	packet := stoppedEngine(t, 3, EngineConfig{Net: &stack})
	assertAllocs(t, "transferSeconds (packetized stack)", 0, func() {
		packet.transferSeconds(nodeName(0), nodeName(1), 1<<20, 3)
	})
}

// TestPlaceAllocFree drives the placement hot path: task 0 exercises the
// bare candidate scan, task 1 adds the dependency-grouping and transfer-
// pricing loops. Each run resets the bookkeeping a placement mutates so
// every iteration sees the same steady state.
func TestPlaceAllocFree(t *testing.T) {
	e := stoppedEngine(t, 3, EngineConfig{Policy: PolicyHEFT})
	ds := e.newDispatchState()
	st := e.newWFState(chainWorkflow(t, 2), "wf0", "default", &Schedule{})
	e.onSubmit(ds, st)
	for { // consume the initial ready items; the test re-places by hand
		item, ok := e.nextFair(ds)
		if !ok {
			break
		}
		item.wf.queuedRefs--
	}
	st.doneAt[0], st.locAt[0] = 0.01, 0 // pretend task 0 finished on node 0
	reset := func() {
		st.inflight = 0
		for _, q := range e.queues {
			q.items, q.head = q.items[:0], 0
		}
		for ds.heap.Len() > 0 {
			ds.heap.PopMin()
		}
		for i := range ds.inHeap {
			ds.inHeap[i] = false
			ds.nodeFree[i] = 0
		}
	}
	for tid, what := range map[int32]string{0: "place (no deps)", 1: "place (grouped transfers)"} {
		item := readyItem{wf: st, task: tid}
		assertAllocs(t, what, 0, func() {
			e.place(ds, item)
			reset()
		})
	}
}

// TestOnReportAllocFree drives the completion hot path for a software
// task: monitor feedback, ordered schedule insertion, and waking the
// dependent task. The report for task 0 of a 2-task chain never finishes
// the workflow, so each run restores the pre-completion state.
func TestOnReportAllocFree(t *testing.T) {
	e := stoppedEngine(t, 2, EngineConfig{})
	ds := e.newDispatchState()
	st := e.newWFState(chainWorkflow(t, 2), "wf0", "default", &Schedule{})
	e.onSubmit(ds, st)
	rep := execReport{wf: st, tidx: 0, node: 0, start: 0, end: 0.01, nominal: 0.008}
	assertAllocs(t, "onReport (software completion)", 0, func() {
		st.inflight = 1
		e.onReport(ds, rep)
		// Restore: the completion consumed a pending task, readied its
		// child, and appended one assignment.
		st.pending++
		st.remaining[1] = 1
		st.doneAt[0], st.locAt[0] = 0, -1
		st.sched.Assignments = st.sched.Assignments[:0]
		for {
			item, ok := e.nextFair(ds)
			if !ok {
				break
			}
			item.wf.queuedRefs--
		}
	})
}

// TestSubmitWaitAllocBudget pins a steady-state Submit+Wait of a fixed
// 3-task chain on a started engine at what the caller keeps: the Future,
// which holds the Schedule, and the assignment slice. The workflow record
// and, in adaptive mode, its tuner are recycled, so neither mode allocates
// more.
func TestSubmitWaitAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		what   string
		cfg    EngineConfig
		budget float64
	}{
		{"Submit+Wait (3-task chain)", EngineConfig{}, 2},
		{"adaptive Submit+Wait (3-task chain)", EngineConfig{Adaptive: true}, 2},
	} {
		e := startEngine(t, testCluster(3), tc.cfg)
		w := chainWorkflow(t, 3)
		opt := SubmitOptions{Name: "chain", Tenant: "t"}
		assertAllocs(t, tc.what, tc.budget, func() {
			fut, err := e.Submit(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		})
		e.Shutdown()
	}
}

// TestServeAllocBudget pins Serve into a schedule the caller owns at one
// allocation, static and adaptive: the assignment slice, which the caller
// keeps.
func TestServeAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		what string
		cfg  EngineConfig
	}{
		{"Serve (3-task chain)", EngineConfig{}},
		{"adaptive Serve (3-task chain)", EngineConfig{Adaptive: true}},
	} {
		e := startEngine(t, testCluster(3), tc.cfg)
		w := chainWorkflow(t, 3)
		opt := SubmitOptions{Name: "chain", Tenant: "t"}
		var sched Schedule
		assertAllocs(t, tc.what, 1, func() {
			if err := e.Serve(w, opt, &sched); err != nil {
				t.Fatal(err)
			}
		})
		e.Shutdown()
	}
}

// BenchmarkEngineSubmit measures engine dispatch alone: one Submit+Wait of
// a 4-task offloadable chain on a started 2-node engine with the kernel
// programmed, statically and adaptively placed.
func BenchmarkEngineSubmit(b *testing.B) {
	for _, mode := range []struct {
		name     string
		adaptive bool
	}{{"static", false}, {"adaptive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cluster := testCluster(2)
			bs := fpgaBitstream()
			if _, err := cluster.Nodes[0].Program(0, -1, bs); err != nil {
				b.Fatal(err)
			}
			w := NewWorkflow()
			for i := 0; i < 4; i++ {
				spec := TaskSpec{Name: taskName(i), Flops: 5e10, InputBytes: 1 << 22, OutputBytes: 1 << 20,
					Cores: 1, NeedsFPGA: true, BitstreamID: bs.ID}
				if i > 0 {
					spec.Deps = []string{taskName(i - 1)}
				}
				if err := w.Submit(spec); err != nil {
					b.Fatal(err)
				}
			}
			e := NewEngine(cluster, EngineConfig{Adaptive: mode.adaptive})
			if err := e.Start(); err != nil {
				b.Fatal(err)
			}
			defer e.Shutdown()
			opt := SubmitOptions{Name: "chain", Tenant: "t"}
			b.ReportAllocs()
			for b.Loop() {
				fut, err := e.Submit(w, opt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := fut.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
