package runtime

import (
	"math/rand/v2"
	"reflect"
	goruntime "runtime"
	"testing"
	"time"
)

// The engine runs on its callers' goroutines: Start, Submit and Shutdown
// serve under one lock, and nothing outlives the call. These tests pin
// that structure.

func TestEngineStartsNoGoroutine(t *testing.T) {
	before := goruntime.NumGoroutine()
	check := func(when string) {
		t.Helper()
		if n := goruntime.NumGoroutine(); n > before {
			t.Fatalf("%s: %d goroutines, %d before NewEngine", when, n, before)
		}
	}
	e := NewEngine(testCluster(3), EngineConfig{})
	check("NewEngine")
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	check("Start")
	w := chainWorkflow(t, 3)
	for i := 0; i < 100; i++ {
		fut, err := e.Submit(w, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	check("Submit+Wait")
	e.Shutdown()
	check("Shutdown")
}

// waitOrFail runs fn and fails the test if it has not returned in time.
func waitOrFail(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

func TestEngineEarlySubmissionsNeverBlock(t *testing.T) {
	const n = 100
	e := NewEngine(testCluster(2), EngineConfig{})
	futs := make([]*Future, n)
	w := chainWorkflow(t, 2)
	waitOrFail(t, "pre-Start submissions", func() {
		for i := range futs {
			fut, err := e.Submit(w, SubmitOptions{Tenant: taskName(i % 7)})
			if err != nil {
				t.Error(err)
				return
			}
			futs[i] = fut
		}
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	for i, fut := range futs {
		sched, err := fut.Wait()
		if err != nil || len(sched.Assignments) != 2 {
			t.Fatalf("pre-Start workflow %d: %v, %+v", i, err, sched)
		}
	}
	if st := e.Stats(); st.Completed != n || st.Active != 0 {
		t.Fatalf("stats after Start: %+v", st)
	}
}

func TestEngineShutdownUnstartedFailsQueued(t *testing.T) {
	e := NewEngine(testCluster(1), EngineConfig{})
	fut, err := e.Submit(chainWorkflow(t, 1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	waitOrFail(t, "Wait on a never-started engine", func() {
		if _, err := fut.Wait(); err == nil {
			t.Error("queued workflow of a never-started engine must fail")
		}
	})
	if err := e.Start(); err == nil {
		t.Error("Start after Shutdown must fail")
	}
}

// TestIdleUnplugAppliesBeforeNextSubmit: an unplug applied between
// submissions is traced before the next workflow enters, and that
// workflow's fpga variant starts undegraded. Apply is the script's writer
// run at call time: the same unplug scripted in EngineConfig.Events at the
// same modelled time gives the second workflow the same schedule and the
// same trace, apart from the device-unplug event Apply traces (Start
// traces no scripted event).
func TestIdleUnplugAppliesBeforeNextSubmit(t *testing.T) {
	// serve runs "first" and "second" on a fresh engine over two nodes,
	// node 0 programmed. With no script it applies an unplug of node 0's
	// device between them, at the first workflow's makespan, so the second
	// workflow finds no accelerator.
	serve := func(script []EnvEvent) (first, second *Schedule, trace []Event, drift []float64) {
		cluster, bs := programmedCluster(t, 2)
		e := NewEngine(cluster, EngineConfig{Adaptive: true, Events: script})
		e.cfg.Trace = func(ev Event) {
			trace = append(trace, ev)
			if ev.Kind == EventVariant && ev.Workflow == "second" {
				for st := range e.ds.active {
					if st.name == "second" {
						drift = append(drift, st.tuner.Drift(VariantFPGA))
					}
				}
			}
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		run := func(name string) *Schedule {
			w := NewWorkflow()
			if err := w.Submit(TaskSpec{Name: "mc", Flops: 5e11, InputBytes: 1 << 24,
				OutputBytes: 1 << 20, NeedsFPGA: true, BitstreamID: bs.ID}); err != nil {
				t.Fatal(err)
			}
			fut, err := e.Submit(w, SubmitOptions{Name: name})
			if err != nil {
				t.Fatal(err)
			}
			sched, err := fut.Wait()
			if err != nil {
				t.Fatal(err)
			}
			return sched
		}
		first = run("first")
		if script == nil {
			if err := e.Apply(EnvEvent{Kind: EnvUnplug, Node: nodeName(0), At: first.Makespan}); err != nil {
				t.Fatal(err)
			}
		}
		return first, run("second"), trace, drift
	}

	first, second, applied, drift := serve(nil)
	var kinds []EventKind
	for _, ev := range applied {
		if ev.Workflow == "second" || ev.Workflow == "" {
			kinds = append(kinds, ev.Kind)
		}
	}
	if len(kinds) < 2 || kinds[0] != EventDeviceUnplug || kinds[1] != EventSubmit {
		t.Fatalf("trace order %v, want device-unplug then submit", kinds)
	}
	if len(drift) == 0 || drift[0] != 1 {
		t.Fatalf("fpga drift of the next workflow = %v, want undegraded 1", drift)
	}
	for _, a := range second.Assignments {
		if a.OnFPGA {
			t.Fatalf("second workflow offloaded to the unplugged device: %+v", a)
		}
	}

	scriptFirst, scriptSecond, scripted, _ := serve([]EnvEvent{{Kind: EnvUnplug, Node: nodeName(0), At: first.Makespan}})
	if !reflect.DeepEqual(scriptFirst, first) || !reflect.DeepEqual(scriptSecond, second) {
		t.Fatalf("scripted unplug served\n%+v\n%+v\napplied unplug served\n%+v\n%+v",
			scriptFirst, scriptSecond, first, second)
	}
	var rest []Event
	for _, ev := range applied {
		if ev.Kind != EventDeviceUnplug {
			rest = append(rest, ev)
		}
	}
	if len(rest) != len(applied)-1 {
		t.Fatalf("Apply traced %d device-unplug events, want 1", len(applied)-len(rest))
	}
	if !reflect.DeepEqual(rest, scripted) {
		t.Fatalf("scripted trace\n%+v\napplied trace without its unplug\n%+v", scripted, rest)
	}
}

// linearNextFair is the O(tenants) scan nextFair replaced. It stays here
// as the reference the bitset pick must reproduce exactly.
func linearNextFair(ds *dispatchState) (readyItem, bool) {
	n := len(ds.queues)
	for i := 0; i < n; i++ {
		qi := (ds.rrNext + i) % n
		q := ds.queues[qi]
		if q.empty() {
			continue
		}
		ds.readyCount--
		ds.rrNext = (qi + 1) % n
		return q.pop(), true
	}
	return readyItem{}, false
}

func TestNextFairMatchesLinearScan(t *testing.T) {
	e := &Engine{}
	newDS := func() *dispatchState { return &dispatchState{tenantIdx: make(map[string]int)} }
	for _, tenants := range []int{1, 63, 64, 65, 130} {
		rng := rand.New(rand.NewPCG(uint64(tenants), 7))
		fast, ref := newDS(), newDS()
		fastWF := map[int]*wfState{}
		refWF := map[int]*wfState{}
		push := func(tenant int, task int32) {
			for _, side := range []struct {
				ds  *dispatchState
				wfs map[int]*wfState
			}{{fast, fastWF}, {ref, refWF}} {
				st := side.wfs[tenant]
				if st == nil {
					// Tenants register on first use, as admissions do.
					st = &wfState{tq: side.ds.tenantQueue(taskName(tenant))}
					side.wfs[tenant] = st
				}
				e.pushReady(side.ds, st, task, false, 0)
			}
		}
		pop := func(step int) bool {
			got, gotOK := e.nextFair(fast)
			want, wantOK := linearNextFair(ref)
			if gotOK != wantOK || got.task != want.task ||
				(gotOK && got.wf.tq != want.wf.tq) || fast.rrNext != ref.rrNext {
				t.Fatalf("tenants=%d step %d: bitset pick (%v q%d t%d rr%d), scan (%v q%d t%d rr%d)",
					tenants, step, gotOK, tqOf(got), got.task, fast.rrNext,
					wantOK, tqOf(want), want.task, ref.rrNext)
			}
			return gotOK
		}
		for step := 0; step < 20000; step++ {
			switch r := rng.IntN(10); {
			case r < 4:
				push(rng.IntN(tenants), int32(step))
			case r < 5: // a burst from one tenant
				ten := rng.IntN(tenants)
				for k := 0; k < 1+rng.IntN(5); k++ {
					push(ten, int32(step))
				}
			default:
				pop(step)
			}
		}
		for pop(-1) {
		}
	}
}

func tqOf(it readyItem) int {
	if it.wf == nil {
		return -1
	}
	return it.wf.tq
}
