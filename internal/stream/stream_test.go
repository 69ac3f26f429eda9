package stream

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"everest/internal/hls"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// --- arrival processes ---

func drawGaps(a Arrivals, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Next()
		if out[i] <= 0 {
			panic("non-positive gap")
		}
	}
	return out
}

func TestArrivalsDeterministic(t *testing.T) {
	for _, kind := range []string{"poisson", "bursty", "diurnal"} {
		a := drawGaps(NewArrivals(kind, 100, 7), 5000)
		b := drawGaps(NewArrivals(kind, 100, 7), 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: gap %d differs across same-seed runs: %g vs %g", kind, i, a[i], b[i])
			}
		}
		c := drawGaps(NewArrivals(kind, 100, 8), 5000)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: different seeds produced identical gap trains", kind)
		}
	}
}

func TestArrivalsMeanRate(t *testing.T) {
	const rate, n = 50.0, 200000
	for _, kind := range []string{"poisson", "bursty", "diurnal"} {
		var span float64
		for _, g := range drawGaps(NewArrivals(kind, rate, 42), n) {
			span += g
		}
		got := float64(n) / span
		if got < rate*0.9 || got > rate*1.1 {
			t.Errorf("%s: realized rate %.2f events/s, want ~%.0f", kind, got, rate)
		}
	}
}

func TestBurstyModulation(t *testing.T) {
	// The burst phases must actually raise the short-term rate: the largest
	// 10% of gaps (quiet phase) should be much longer than the smallest 10%
	// (burst phase) relative to a plain Poisson train at the same mean rate.
	gaps := drawGaps(NewBursty(10, 8, 5, 15, 3), 50000)
	var small, large int
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		if g < mean/4 {
			small++
		}
		if g > mean*4 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("bursty train shows no modulation: %d short, %d long gaps around mean %g", small, large, mean)
	}
}

// --- histogram ---

func TestHistBucketEdges(t *testing.T) {
	r := newRNG(11)
	for i := 0; i < 10000; i++ {
		// Latencies from sub-floor to hours.
		lat := math.Exp((r.float64() - 0.3) * 20)
		idx := bucketOf(lat)
		up := bucketUpper(idx)
		if lat >= histMin {
			if up < lat {
				t.Fatalf("bucketUpper(%d)=%g below recorded latency %g", idx, up, lat)
			}
			if up > lat*(1+2.0/histSub)+histMin {
				t.Fatalf("bucketUpper(%d)=%g too far above latency %g", idx, up, lat)
			}
		}
	}
}

func TestHistPercentiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(float64(i) * 1e-6)
	}
	if p := h.percentile(0.5); p < 450e-6 || p > 560e-6 {
		t.Errorf("p50 = %g, want ~500µs", p)
	}
	if p := h.percentile(0.99); p < 900e-6 || p > 1100e-6 {
		t.Errorf("p99 = %g, want ~990µs", p)
	}
	if p := h.percentile(1); p != h.max {
		t.Errorf("p100 = %g, want max %g", p, h.max)
	}
	if m := h.mean(); math.Abs(m-500.5e-6) > 1e-9 {
		t.Errorf("mean = %g, want 500.5µs", m)
	}
	var a, b hist
	for i := 1; i <= 500; i++ {
		a.add(float64(i) * 1e-6)
	}
	for i := 501; i <= 1000; i++ {
		b.add(float64(i) * 1e-6)
	}
	a.merge(&b)
	if a.count != h.count || a.percentile(0.99) != h.percentile(0.99) || a.max != h.max {
		t.Errorf("merged histogram disagrees with direct: count %d vs %d", a.count, h.count)
	}
	var empty hist
	if empty.percentile(0.99) != 0 || empty.mean() != 0 {
		t.Errorf("empty histogram should report zeros")
	}
}

// --- engine ---

func testCluster() *platform.Cluster {
	return platform.NewCluster(
		platform.NewNode("node00", platform.XeonModel(), platform.AlveoU55C()),
	)
}

func testBitstream(id string, lut int) platform.Bitstream {
	return platform.Bitstream{
		ID:     id,
		Kernel: id,
		Report: hls.Report{Resources: hls.Resources{LUT: lut, FF: lut, DSP: 8, BRAM: 16}},
		Config: platform.SystemConfig{Replicas: 1, Lanes: 1, BusWidthBits: 64, PackedElements: 1},
	}
}

func softStage(name string, flops float64) StageSpec {
	return StageSpec{Name: name, FlopsPerEvent: flops, BytesPerEvent: 64}
}

func TestEngineValidation(t *testing.T) {
	cl := testCluster()
	ok := PipelineSpec{Arrivals: NewPoisson(10, 1), Events: 10, Stages: []StageSpec{softStage("s", 1e3)}}
	cases := []struct {
		name  string
		cfg   Config
		specs []PipelineSpec
	}{
		{"no cluster", Config{}, []PipelineSpec{ok}},
		{"no pipelines", Config{Cluster: cl}, nil},
		{"no arrivals", Config{Cluster: cl}, []PipelineSpec{{Events: 10, Stages: ok.Stages}}},
		{"no events", Config{Cluster: cl}, []PipelineSpec{{Arrivals: NewPoisson(10, 1), Stages: ok.Stages}}},
		{"no stages", Config{Cluster: cl}, []PipelineSpec{{Arrivals: NewPoisson(10, 1), Events: 10}}},
		{"oversized kernel", Config{Cluster: cl}, []PipelineSpec{{
			Arrivals: NewPoisson(10, 1), Events: 10,
			Stages: []StageSpec{{Name: "big", Bitstream: testBitstream("big", 1<<30), FPGASecondsPerEvent: 1e-6}},
		}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg, c.specs); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
	e, err := New(Config{Cluster: cl}, []PipelineSpec{ok})
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatalf("second Run on a single-shot engine should fail")
	}
}

func TestEngineRejectsInvalidCosts(t *testing.T) {
	fpga := func(sec float64) StageSpec {
		return StageSpec{Name: "infer", FlopsPerEvent: 1e3, Bitstream: testBitstream("k", 40000), FPGASecondsPerEvent: sec}
	}
	soft := func(flops float64, bytes int64) StageSpec {
		return StageSpec{Name: "ingest", FlopsPerEvent: flops, BytesPerEvent: bytes}
	}
	cases := []struct {
		name   string
		stage  StageSpec
		window float64
		want   string
	}{
		{"NaN flops", soft(math.NaN(), 64), 0, "stage ingest has FlopsPerEvent NaN"},
		{"negative flops", soft(-1, 64), 0, "stage ingest has FlopsPerEvent -1"},
		{"infinite flops", soft(math.Inf(1), 64), 0, "stage ingest has FlopsPerEvent +Inf"},
		{"negative bytes", soft(1e3, -64), 0, "stage ingest has BytesPerEvent -64"},
		{"NaN FPGA seconds", fpga(math.NaN()), 0, "stage infer has FPGASecondsPerEvent NaN"},
		{"negative FPGA seconds", fpga(-1), 0, "stage infer has FPGASecondsPerEvent -1"},
		{"NaN window age", soft(1e3, 64), math.NaN(), "has WindowSeconds NaN"},
		{"negative window age", soft(1e3, 64), -0.05, "has WindowSeconds -0.05"},
		{"infinite window age", soft(1e3, 64), math.Inf(1), "has WindowSeconds +Inf"},
	}
	for _, c := range cases {
		_, err := New(Config{Cluster: testCluster()}, []PipelineSpec{{
			Name: "feed", Arrivals: NewPoisson(100, 1), Events: 100,
			WindowSeconds: c.window, Stages: []StageSpec{c.stage},
		}})
		if err == nil || !strings.Contains(err.Error(), "pipeline feed") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to name pipeline feed and %q", c.name, err, c.want)
		}
	}
}

func TestEngineRejectsSharedArrivals(t *testing.T) {
	spec := func(name string, a Arrivals) PipelineSpec {
		return PipelineSpec{Name: name, Arrivals: a, Events: 100, Stages: []StageSpec{softStage("s", 1e3)}}
	}
	shared := NewPoisson(2000, 3)
	_, err := New(Config{Cluster: testCluster()}, []PipelineSpec{spec("a", shared), spec("b", NewPoisson(2000, 4)), spec("c", shared)})
	if err == nil || !strings.Contains(err.Error(), "pipelines a and c share one arrival process") {
		t.Errorf("shared process: err = %v, want a rejection naming a and c", err)
	}
	// Separate processes with the same seed draw the same gaps, but each
	// pipeline owns its own.
	e, err := New(Config{Cluster: testCluster()}, []PipelineSpec{spec("a", NewPoisson(2000, 3)), spec("b", NewPoisson(2000, 3))})
	if err != nil {
		t.Fatalf("separate same-seed processes rejected: %v", err)
	}
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pipelines[0].P99 != st.Pipelines[1].P99 || st.Done != 200 {
		t.Errorf("same-seed pipelines should serve identical trains: %+v", st.Pipelines)
	}
}

func TestEngineAdmitsArrivalAtFlushDeadline(t *testing.T) {
	// Arrivals every 0.25 s against a 0.5 s window age: each window's third
	// arrival lands exactly on its deadline and is still admitted, because
	// an arrival sorts before a flush at the same instant.
	var closes []Event
	e, err := New(Config{Cluster: testCluster(), Trace: func(ev Event) {
		if ev.Kind == EventWindowClose {
			closes = append(closes, ev)
		}
	}}, []PipelineSpec{{
		Name: "grid", Arrivals: &fixedGap{gap: 0.25}, Events: 8,
		WindowEvents: 64, WindowSeconds: 0.5,
		Stages: []StageSpec{softStage("s", 1e3)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Age closes at 0.75 and 1.5, then the source runs dry at 2.0.
	want := []Event{{Time: 0.75, Events: 3}, {Time: 1.5, Events: 3}, {Time: 2.0, Events: 2}}
	if len(closes) != len(want) {
		t.Fatalf("closes = %+v, want %+v", closes, want)
	}
	for i, w := range want {
		if closes[i].Time != w.Time || closes[i].Events != w.Events {
			t.Errorf("close %d = %v s with %d events, want %v s with %d", i, closes[i].Time, closes[i].Events, w.Time, w.Events)
		}
	}
}

func TestEngineDrainsAllEvents(t *testing.T) {
	const events = 10000
	e, err := New(Config{Cluster: testCluster()}, []PipelineSpec{{
		Name: "calm", Arrivals: NewPoisson(1000, 1), Events: events,
		WindowEvents: 64,
		Stages:       []StageSpec{softStage("ingest", 1e4), softStage("project", 5e4)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != events || st.Done != events || st.Shed != 0 {
		t.Fatalf("events=%d done=%d shed=%d, want all %d done", st.Events, st.Done, st.Shed, events)
	}
	if st.Windows < events/64 {
		t.Errorf("windows = %d, want >= %d", st.Windows, events/64)
	}
	if st.P50 <= 0 || st.P99 < st.P50 || st.Max < st.P99 || st.Throughput <= 0 {
		t.Errorf("degenerate latency stats: p50=%g p99=%g max=%g thr=%g", st.P50, st.P99, st.Max, st.Throughput)
	}
	if len(st.Pipelines) != 1 || st.Pipelines[0].Done != events {
		t.Errorf("pipeline breakdown missing or wrong: %+v", st.Pipelines)
	}
	if len(st.Pipelines[0].Stages) != 2 || st.Pipelines[0].Stages[1].Windows != st.Windows {
		t.Errorf("stage breakdown wrong: %+v", st.Pipelines[0].Stages)
	}
}

func TestEngineWindowAgeFlush(t *testing.T) {
	// 5 events/s against a 64-event window: only the age flush can close
	// windows before the source runs dry.
	e, err := New(Config{Cluster: testCluster()}, []PipelineSpec{{
		Name: "sparse", Arrivals: NewPoisson(5, 2), Events: 200,
		WindowEvents: 64, WindowSeconds: 0.5,
		Stages: []StageSpec{softStage("ingest", 1e4)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 200 || st.Shed != 0 {
		t.Fatalf("done=%d shed=%d, want all 200 done", st.Done, st.Shed)
	}
	// ~2.5 events per 0.5s flush -> far more windows than 200/64.
	if st.Windows < 20 {
		t.Errorf("windows = %d, want age flushes to produce many undersized windows", st.Windows)
	}
	if st.P99 > 0.6 {
		t.Errorf("p99 = %gs, age flush should bound latency near the 0.5s window age", st.P99)
	}
}

// overloadSpec is a pipeline whose second stage cannot keep up with the
// offered rate, forcing the overload policy to act.
func overloadSpec(policy Policy) PipelineSpec {
	return PipelineSpec{
		Name: "hot", Policy: policy,
		Arrivals: NewPoisson(2000, 3), Events: 20000, WindowEvents: 64,
		Stages: []StageSpec{
			softStage("ingest", 1e4),
			// 51.2 Gflop/s Xeon: 2.5e8 flops/event at 2000 ev/s asks ~10x
			// the node -> hopeless overload.
			softStage("train", 2.5e8),
		},
	}
}

func TestEngineShedPolicy(t *testing.T) {
	e, err := New(Config{Cluster: testCluster()}, []PipelineSpec{overloadSpec(Shed)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed == 0 {
		t.Fatalf("overloaded shed pipeline dropped nothing")
	}
	if st.Done+st.Shed != st.Events {
		t.Fatalf("done %d + shed %d != events %d", st.Done, st.Shed, st.Events)
	}
	// Shedding keeps the served latency bounded by the queue depth, not the
	// overload: every served window waited at most ~queue-depth service
	// times.
	if st.P99 > 30 {
		t.Errorf("shed p99 = %gs, shedding should bound latency", st.P99)
	}
	ps := st.Pipelines[0]
	var shedW int64
	for _, sg := range ps.Stages {
		shedW += sg.ShedWindows
	}
	if shedW == 0 {
		t.Errorf("no stage accounted the dropped windows: %+v", ps.Stages)
	}
}

func TestEngineBlockPolicy(t *testing.T) {
	e, err := New(Config{Cluster: testCluster()}, []PipelineSpec{overloadSpec(Block)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != 0 {
		t.Fatalf("block policy shed %d events", st.Shed)
	}
	if st.Done != st.Events {
		t.Fatalf("done %d != events %d, backpressure must not lose windows", st.Done, st.Events)
	}
	// The price of completeness: latency absorbs the overload.
	if st.P99 < 30 {
		t.Errorf("block p99 = %gs, expected deep queueing delay under 66x overload", st.P99)
	}
}

// swapSpecs builds two pipelines with distinct kernels that must share the
// cluster's single FPGA, so consecutive windows alternate kernels.
func swapSpecs() []PipelineSpec {
	mk := func(name, kernel string, seed uint64) PipelineSpec {
		return PipelineSpec{
			Name: name, Arrivals: NewPoisson(200, seed), Events: 2000, WindowEvents: 64,
			Stages: []StageSpec{{
				Name: "infer", FlopsPerEvent: 1e5, BytesPerEvent: 256,
				Bitstream: testBitstream(kernel, 40000), FPGASecondsPerEvent: 7e-5,
			}},
		}
	}
	return []PipelineSpec{mk("traffic", "proj_krr", 10), mk("energy", "meter_mlp", 11)}
}

func TestEnginePartialReconfigSwapWin(t *testing.T) {
	run := func(partial bool) Stats {
		e, err := New(Config{Cluster: testCluster(), PartialReconfig: partial}, swapSpecs())
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	off := run(false)
	on := run(true)
	if off.Swaps < 10 {
		t.Fatalf("whole-device mode swapped only %d times; the scenario should alternate kernels", off.Swaps)
	}
	if on.Swaps != 0 {
		t.Errorf("partial reconfig still swapped %d times; both kernels fit resident regions", on.Swaps)
	}
	if on.SwapSeconds >= off.SwapSeconds {
		t.Errorf("swap seconds: on=%g off=%g, want a win", on.SwapSeconds, off.SwapSeconds)
	}
	if on.P99 >= off.P99 {
		t.Errorf("p99: on=%g off=%g, resident kernels should cut tail latency", on.P99, off.P99)
	}
	if on.Done != on.Events || off.Done != off.Events {
		t.Errorf("lost events: on %d/%d, off %d/%d", on.Done, on.Events, off.Done, off.Events)
	}
	foundOn := false
	for _, d := range on.Devices {
		if d.Kernels == 2 && d.Regions > 1 {
			foundOn = true
		}
	}
	if !foundOn {
		t.Errorf("device stats should show one card hosting 2 kernels across regions: %+v", on.Devices)
	}
}

// manySwapSpecs puts six kernels on one card: more than its four PR
// regions, so even partial reconfiguration evicts LRU regions.
func manySwapSpecs() []PipelineSpec {
	var specs []PipelineSpec
	for i := range 6 {
		specs = append(specs, PipelineSpec{
			Name: fmt.Sprintf("p%d", i), Arrivals: NewPoisson(100, uint64(30+i)), Events: 600, WindowEvents: 32,
			Stages: []StageSpec{{
				Name: "infer", FlopsPerEvent: 1e5, BytesPerEvent: 256,
				Bitstream: testBitstream(fmt.Sprintf("k%d", i), 40000), FPGASecondsPerEvent: 7e-5,
			}},
		})
	}
	return specs
}

// TestSwapCountersMatchTrace checks each device's Swaps against its
// trace: every load is one EventSwap, and a swap is a load beyond each
// kernel's first.
func TestSwapCountersMatchTrace(t *testing.T) {
	for _, c := range []struct {
		name    string
		partial bool
		specs   []PipelineSpec
	}{
		{"whole-device", false, swapSpecs()},
		{"regions", true, swapSpecs()},
		{"regions-evicting", true, manySwapSpecs()},
	} {
		loads := map[string]int{}
		kernels := map[string]map[string]bool{}
		e, err := New(Config{Cluster: testCluster(), PartialReconfig: c.partial, Trace: func(ev Event) {
			if ev.Kind == EventSwap {
				loads[ev.Device]++
				if kernels[ev.Device] == nil {
					kernels[ev.Device] = map[string]bool{}
				}
				kernels[ev.Device][ev.Bitstream] = true
			}
		}}, c.specs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if c.name != "regions" && st.Swaps == 0 {
			t.Errorf("%s: no swaps; the scenario should evict", c.name)
		}
		for _, d := range st.Devices {
			if got := int64(loads[d.Name] - len(kernels[d.Name])); got != d.Swaps {
				t.Errorf("%s: %s traced %d loads of %d kernels, Swaps = %d", c.name, d.Name, loads[d.Name], len(kernels[d.Name]), d.Swaps)
			}
		}
	}
}

// TestNewClearsAssignedDevices builds engines over a card already holding
// kernels, including one the pipelines use, in every region and whole:
// residency starts empty, so the stats match a fresh cluster's.
func TestNewClearsAssignedDevices(t *testing.T) {
	run := func(partial bool, c *platform.Cluster) Stats {
		e, err := New(Config{Cluster: c, PartialReconfig: partial}, manySwapSpecs())
		if err != nil {
			t.Fatal(err)
		}
		st, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, partial := range []bool{false, true} {
		c := testCluster()
		n := c.Nodes[0]
		if partial {
			for r, id := range []string{"k0", "x1", "x2", "x3"} {
				if _, err := n.Program(0, r, testBitstream(id, 40000)); err != nil {
					t.Fatal(err)
				}
			}
		} else if _, err := n.Program(0, -1, testBitstream("k0", 40000)); err != nil {
			t.Fatal(err)
		}
		if got, want := run(partial, c), run(partial, testCluster()); !reflect.DeepEqual(got, want) {
			t.Errorf("partial=%v: stats over a programmed card %+v, over a fresh one %+v", partial, got, want)
		}
	}
}

func TestEngineSharedDeviceSerializes(t *testing.T) {
	// Two accelerated pipelines on one card: total busy seconds on the
	// device must not exceed the makespan (no double-booked fabric).
	e, err := New(Config{Cluster: testCluster(), PartialReconfig: true}, swapSpecs())
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var busy float64
	for _, p := range st.Pipelines {
		for _, sg := range p.Stages {
			busy += sg.BusySeconds
		}
	}
	if busy > st.Makespan*1.0001 {
		t.Errorf("device busy %gs exceeds makespan %gs: fabric double-booked", busy, st.Makespan)
	}
}

// --- determinism (trace byte-equality across GOMAXPROCS) ---

func renderStreamTrace(buf *bytes.Buffer) {
	specs := swapSpecs()
	specs[0].Policy = Shed
	specs[1].Policy = Block
	specs[0].Arrivals = NewArrivals("bursty", 300, 21)
	specs[1].Arrivals = NewArrivals("diurnal", 300, 22)
	e, err := New(Config{
		Cluster:         testCluster(),
		PartialReconfig: true,
		Trace: func(ev Event) {
			fmt.Fprintf(buf, "%.9f %s %s/%s %s %d\n", ev.Time, ev.Kind, ev.Pipeline, ev.Stage, ev.Device, ev.Events)
		},
	}, specs)
	if err != nil {
		panic(err)
	}
	st, err := e.Run()
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(buf, "done=%d shed=%d windows=%d p99=%.9f swaps=%d\n",
		st.Done, st.Shed, st.Windows, st.P99, st.Swaps)
}

func atGOMAXPROCS(n int, fn func()) {
	old := goruntime.GOMAXPROCS(n)
	defer goruntime.GOMAXPROCS(old)
	fn()
}

func TestStreamTraceDeterministic(t *testing.T) {
	var one, eight bytes.Buffer
	atGOMAXPROCS(1, func() { renderStreamTrace(&one) })
	atGOMAXPROCS(8, func() { renderStreamTrace(&eight) })
	if one.Len() == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(one.Bytes(), eight.Bytes()) {
		a, b := one.String(), eight.String()
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("stream trace differs across GOMAXPROCS at byte %d:\n...%q\nvs\n...%q",
			i, a[lo:min(i+80, len(a))], b[lo:min(i+80, len(b))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// --- steady-state allocation budget ---

func TestStreamSteadyStateAllocs(t *testing.T) {
	e, err := New(Config{Cluster: testCluster()}, []PipelineSpec{{
		// A window fills in 12.8 ms on average, so about half close on age.
		Name: "steady", Arrivals: NewPoisson(5000, 5), Events: 400000,
		WindowEvents: 64, WindowSeconds: 0.0128,
		Stages: []StageSpec{softStage("ingest", 1e3), softStage("project", 2e3)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := e.pipes[0]
	// At most one source entry per pipeline plus one completion per busy
	// stage: a flush entry is pushed only for a window that closes by age,
	// so the heap holds no stale timers.
	maxHeap := len(e.pipes) * (1 + len(p.stages))
	step := func() {
		e.step()
		if n := e.heap.Len(); n > maxHeap {
			t.Fatalf("heap holds %d entries, want <= %d", n, maxHeap)
		}
	}
	e.ran = true // drive the loop by hand
	e.heap.Push(runtime.TimeItem{Time: p.spec.Arrivals.Next(), Seq: slotArrival})
	// Warm up by windows (a step admits or closes a whole window): let the
	// freelist, rings, and heap reach steady state.
	for p.windows < 1000 && e.heap.Len() > 0 {
		step()
	}
	if e.heap.Len() == 0 {
		t.Fatal("warmup drained the event budget; raise Events")
	}
	avg := testing.AllocsPerRun(2000, func() {
		if e.heap.Len() > 0 {
			step()
		}
	})
	if e.heap.Len() == 0 {
		t.Fatal("the measured steps drained the event budget; raise Events")
	}
	if avg != 0 {
		t.Errorf("steady-state step allocates %.2f objects/step, want 0", avg)
	}
}
