package runtime

import (
	"math/rand/v2"
	"reflect"
	goruntime "runtime"
	"slices"
	"strings"
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
						drift = append(drift, st.tuner.Drift(st.points[VariantFPGA]))
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

// cloneSchedule deep-copies a schedule, keeping an empty assignment slice
// non-nil so the copy compares equal to it.
func cloneSchedule(s *Schedule) Schedule {
	c := *s
	c.Assignments = slices.Clone(s.Assignments)
	return c
}

// backingEnd identifies a slice's backing array by the address of its last
// element: slices sharing an array share that address.
func backingEnd(as []Assignment) *Assignment {
	if cap(as) == 0 {
		return nil
	}
	return &as[:cap(as)][cap(as)-1]
}

// TestServeSchedulesAreCallerOwned serves a stream of workflows of several
// shapes on one adaptive engine, so records and their tuners recycle, each
// into its own caller-owned schedule, and then a long one that fails
// because every node dies under it. No later serve may write into an
// earlier schedule, the failed one included, and no two schedules may
// share an assignment array.
func TestServeSchedulesAreCallerOwned(t *testing.T) {
	const n = 24
	cfg := EngineConfig{Policy: PolicyHEFT, Adaptive: true}
	cluster, bs := programmedCluster(t, 2)
	shapes := []*Workflow{fpgaChain(t, 3, bs.ID), chainWorkflow(t, 2), forkJoinWorkflow(t, 3), chainWorkflow(t, 4)}
	// serve runs the stream on e, each workflow into a new schedule, and
	// returns the schedules in the order served.
	serve := func(e *Engine) []*Schedule {
		var out []*Schedule
		for i := range n {
			s := new(Schedule)
			if err := e.Serve(shapes[i%len(shapes)], SubmitOptions{Tenant: "t"}, s); err != nil {
				t.Fatalf("workflow %d: %v", i, err)
			}
			out = append(out, s)
		}
		return out
	}
	dry := startEngine(t, cluster, cfg)
	end := 0.0
	for _, s := range serve(dry) {
		end = max(end, s.Makespan)
	}
	dry.Shutdown()

	// Both nodes die just after the stream's last completion: the stream
	// serves as before, and a task running past that time finds no node
	// left to run on.
	die := end * (1 + 1e-9)
	cfg.Failures = []NodeFailure{{Node: nodeName(0), AtTime: die}, {Node: nodeName(1), AtTime: die}}
	e := startEngine(t, cluster, cfg)
	defer e.Shutdown()
	var scheds []*Schedule
	var copies []Schedule
	for _, s := range serve(e) {
		scheds = append(scheds, s)
		copies = append(copies, cloneSchedule(s))
	}
	long := NewWorkflow()
	if err := long.Submit(TaskSpec{Name: "long", Flops: 1e15, OutputBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	failed := new(Schedule)
	if err := e.Serve(long, SubmitOptions{Tenant: "t"}, failed); err == nil || !strings.Contains(err.Error(), "no alive node") {
		t.Fatalf("a workflow running past every node's death: err = %v, want no alive node", err)
	}
	scheds, copies = append(scheds, failed), append(copies, cloneSchedule(failed))
	for range 4 {
		if err := e.Serve(chainWorkflow(t, 3), SubmitOptions{Tenant: "t"}, new(Schedule)); err == nil {
			t.Fatal("a workflow served after every node died succeeded")
		}
	}

	arrays := map[*Assignment]int{}
	for i, s := range scheds {
		if !reflect.DeepEqual(*s, copies[i]) {
			t.Errorf("schedule %d changed after its Serve returned:\n got  %+v\n want %+v", i, *s, copies[i])
		}
		if p := backingEnd(s.Assignments); p != nil {
			if j, ok := arrays[p]; ok {
				t.Errorf("schedules %d and %d share an assignment array", j, i)
			}
			arrays[p] = i
		}
	}
}

// TestRecycledTunerStartsUndegraded serves an adaptive workflow whose fpga
// placement falls back to software — a slowed node runs late past an
// unplug the placement did not see coming — so its tuner learns an fpga
// drift above 1, then serves the next workflow on the same recycled
// record: its tuner starts from its seeds, at drift 1.
func TestRecycledTunerStartsUndegraded(t *testing.T) {
	cfg := EngineConfig{Policy: PolicyHEFT, Adaptive: true}
	// degraded is one software task and one independent offload on a
	// one-node cluster: the offload queues behind the software task.
	degraded := NewWorkflow()
	for _, spec := range []TaskSpec{
		{Name: taskName(0), Flops: 5e11, OutputBytes: 1 << 20, Cores: 1},
		{Name: taskName(1), Flops: 5e10, InputBytes: 1 << 22, OutputBytes: 1 << 20, Cores: 1,
			NeedsFPGA: true, BitstreamID: fpgaBitstream().ID},
	} {
		if err := degraded.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	cluster, bs := programmedCluster(t, 1)
	pre := doneAt(t, cluster, cfg, degraded, 0)
	// Node 0 runs 3x slow from the start, which the monitor has not
	// learned when the offload is placed at the software task's
	// estimated end, and its device is unplugged between that estimate
	// and the software task's real end.
	cfg.Events = []EnvEvent{
		{Kind: EnvSlowdown, Node: nodeName(0), Factor: 3, At: 0},
		{Kind: EnvUnplug, Node: nodeName(0), At: 2 * pre},
	}
	e := NewEngine(cluster, cfg)
	var records []*wfState
	var learned, seeded []float64
	e.cfg.Trace = func(ev Event) {
		for st := range e.ds.active {
			switch {
			case ev.Kind == EventTaskDone && st.name == "degraded":
				learned = append(learned, st.tuner.Drift(st.points[VariantFPGA]))
				records = append(records, st)
			case ev.Kind == EventVariant && st.name == "next":
				seeded = append(seeded, st.tuner.Drift(st.points[VariantFPGA]))
				records = append(records, st)
			}
		}
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	var first, second Schedule
	if err := e.Serve(degraded, SubmitOptions{Name: "degraded"}, &first); err != nil {
		t.Fatal(err)
	}
	if first.Adapt.Fallbacks == 0 || len(learned) == 0 || learned[len(learned)-1] <= 1 {
		t.Fatalf("first workflow: %d fallbacks, fpga drift %v: want a fallback blowup", first.Adapt.Fallbacks, learned)
	}
	if err := e.Serve(fpgaChain(t, 2, bs.ID), SubmitOptions{Name: "next"}, &second); err != nil {
		t.Fatal(err)
	}
	for _, st := range records[1:] {
		if st != records[0] {
			t.Fatal("the second workflow was not served on the first one's recycled record")
		}
	}
	if len(seeded) == 0 {
		t.Fatal("the second workflow made no adaptive placement")
	}
	for _, d := range seeded {
		if d != 1 {
			t.Fatalf("fpga drift of the next workflow = %v, want 1 at every placement", seeded)
		}
	}
}
