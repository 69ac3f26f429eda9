package stream

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"everest/internal/platform"
	"everest/internal/runtime"
)

// The reference below is the event-by-event source loop the engine ran
// before a window's arrivals were admitted in one step: every source event
// is its own heap entry, and every window opened with an age deadline
// pushes a flush entry that goes stale when the window closes on size. It
// drives the same Engine (windows, stages, devices, histograms), so
// FuzzStreamEngine holds the windowed loop to it byte for byte.

// perEventLoop is the reference loop; flushAt is each pipeline's
// scheduled age-flush time of its open window.
type perEventLoop struct {
	e       *Engine
	flushAt []float64
}

// run is Run over the per-event loop.
func (r *perEventLoop) run() Stats {
	e := r.e
	e.ran = true
	r.flushAt = make([]float64, len(e.pipes))
	for _, p := range e.pipes {
		e.heap.Push(runtime.TimeItem{Time: p.spec.Arrivals.Next(), Seq: p.idx*e.stride + slotArrival})
	}
	for e.heap.Len() > 0 {
		r.step()
	}
	return e.stats()
}

func (r *perEventLoop) step() {
	e := r.e
	it := e.heap.PopMin()
	p := e.pipes[it.Seq/e.stride]
	slot := it.Seq % e.stride
	switch slot {
	case slotArrival:
		r.arrive(p, it.Time)
	case slotFlush:
		r.flushTimer(p, it.Time)
	default:
		e.stageDone(p, slot-slotDone, it.Time)
	}
}

// arrive admits one source event into the pipeline's open window and
// schedules the next arrival.
func (r *perEventLoop) arrive(p *pipeline, t float64) {
	e := r.e
	p.generated++
	if p.open == nil {
		p.open = e.getWindow()
		if p.spec.WindowSeconds > 0 {
			r.flushAt[p.idx] = t + p.spec.WindowSeconds
			e.heap.Push(runtime.TimeItem{Time: r.flushAt[p.idx], Seq: p.idx*e.stride + slotFlush})
		}
	}
	p.open.arrivals = append(p.open.arrivals, t)
	if len(p.open.arrivals) >= p.spec.WindowEvents {
		e.closeWindow(p, t)
	}
	if p.generated < p.spec.Events {
		e.heap.Push(runtime.TimeItem{Time: t + p.spec.Arrivals.Next(), Seq: p.idx*e.stride + slotArrival})
	} else if p.open != nil {
		e.closeWindow(p, t)
	}
}

// flushTimer fires a window's age deadline; stale timers (the window
// already closed on size) are recognized by the flushAt mismatch.
func (r *perEventLoop) flushTimer(p *pipeline, t float64) {
	if p.open != nil && r.flushAt[p.idx] == t && len(p.open.arrivals) > 0 {
		r.e.closeWindow(p, t)
	}
}

// fixedGap is a deterministic arrival process on a dyadic grid, so
// arrivals land exactly on a window's age deadline.
type fixedGap struct{ gap float64 }

func (f *fixedGap) Next() float64 { return f.gap }

// fuzzCase is one generated streaming scenario.
type fuzzCase struct {
	seed         uint64
	pipes        uint8
	events       uint16
	windowEvents uint8
	windowMicros uint16
	rate         uint16
	flags        uint8 // bit 0 PR on; bits 1-2 policy (1 shed, 2 block, else mixed); bit 3 every stage on the FPGA; bit 4 two nodes; bit 5 fixed-gap arrivals
}

// specs builds the case's cluster and pipelines; each call returns fresh
// arrival processes, so two engines serve the same feed.
func (c fuzzCase) specs() (*platform.Cluster, []PipelineSpec) {
	r := newRNG(c.seed)
	nodes := []*platform.Node{platform.NewNode("node00", platform.XeonModel(), platform.AlveoU55C())}
	if c.flags&16 != 0 {
		nodes = append(nodes, platform.NewNode("node01", platform.XeonModel(), platform.AlveoU55C()))
	}
	n := 1 + int(c.pipes%5)
	rate := 50 + float64(c.rate%20000)
	ws := float64(c.windowMicros%50001) * 1e-6
	specs := make([]PipelineSpec, n)
	for i := range specs {
		s := r.next()
		p := PipelineSpec{
			Events:        1 + int(c.events%3000),
			WindowEvents:  1 + int(c.windowEvents%100),
			WindowSeconds: ws,
		}
		switch {
		case c.flags&32 != 0:
			g := math.Ldexp(1, -int(4+s%8))
			p.Arrivals = &fixedGap{gap: g}
			if ws > 0 {
				p.WindowSeconds = g * float64(1+s/8%4)
			}
		case s%3 == 0:
			p.Arrivals = NewPoisson(rate, s)
		case s%3 == 1:
			p.Arrivals = NewBursty(rate/3, 8, 0.02, 0.1, s)
		default:
			p.Arrivals = NewDiurnal(rate, 0.9, 0.5, s)
		}
		switch c.flags >> 1 & 3 {
		case 1:
			p.Policy = Shed
		case 2:
			p.Policy = Block
		default:
			p.Policy = Policy(s / 16 % 2)
		}
		stages := 1 + int(s/32%3)
		for k := 0; k < stages; k++ {
			u := r.next()
			st := StageSpec{
				Name:          fmt.Sprintf("s%d", k),
				FlopsPerEvent: float64(1+u%1000) * 1e4,
				BytesPerEvent: int64(u / 1000 % 4096),
				Cores:         int(u / 8 % 3),
			}
			if c.flags&8 != 0 || u/4096%3 == 0 {
				kernel := u / 65536 % 6
				lut := 40000
				if kernel == 5 {
					lut = 500000 // fits the whole device only
				}
				st.Bitstream = testBitstream(fmt.Sprintf("k%d", kernel), lut)
				st.FPGASecondsPerEvent = float64(1+u/8192%1000) * 1e-6
			}
			p.Stages = append(p.Stages, st)
		}
		specs[i] = p
	}
	return platform.NewCluster(nodes...), specs
}

// serve runs the case on the windowed loop (reference false) or the
// per-event reference, rendering the full trace and Stats exactly.
func (c fuzzCase) serve(reference bool) (string, error) {
	var buf bytes.Buffer
	cl, specs := c.specs()
	e, err := New(Config{
		Cluster:         cl,
		PartialReconfig: c.flags&1 != 0,
		Trace: func(ev Event) {
			fmt.Fprintf(&buf, "%v %s %s %s %s %x %d\n", ev.Kind, ev.Pipeline, ev.Stage,
				ev.Device, ev.Bitstream, math.Float64bits(ev.Time), ev.Events)
		},
	}, specs)
	if err != nil {
		return "", err
	}
	var st Stats
	if reference {
		st = (&perEventLoop{e: e}).run()
	} else if st, err = e.Run(); err != nil {
		return "", err
	}
	fmt.Fprintf(&buf, "%+v\n", st)
	return buf.String(), nil
}

// oracleCorpus seeds the shapes the windowed loop must get exactly right.
var oracleCorpus = []fuzzCase{
	{seed: 1, pipes: 0, events: 500, windowEvents: 63, windowMicros: 50000, rate: 50},                  // age-closed windows
	{seed: 2, pipes: 1, events: 2000, windowEvents: 63, windowMicros: 0, rate: 4000},                   // size-closed windows
	{seed: 3, pipes: 2, events: 100, windowEvents: 63, windowMicros: 0, rate: 1000},                    // exhausted tail window
	{seed: 4, pipes: 1, events: 300, windowEvents: 0, windowMicros: 20000, rate: 500},                  // one-event windows
	{seed: 5, pipes: 1, events: 2999, windowEvents: 31, rate: 19950, flags: 4},                         // Block overload
	{seed: 6, pipes: 2, events: 2999, windowEvents: 31, rate: 19950, flags: 2},                         // Shed overload
	{seed: 37, pipes: 1, events: 1500, windowEvents: 15, windowMicros: 5000, rate: 3000, flags: 8 | 1}, // shared FPGA, PR on (region evictions)
	{seed: 37, pipes: 1, events: 1500, windowEvents: 15, windowMicros: 5000, rate: 3000, flags: 8},     // shared FPGA, PR off
	{seed: 11, pipes: 4, events: 800, windowEvents: 40, windowMicros: 30000, rate: 900, flags: 16 | 1}, // two nodes, mixed
	{seed: 3, pipes: 3, events: 400, windowEvents: 9, windowMicros: 1, rate: 200, flags: 32},           // fixed-gap arrivals on the deadline
}

func FuzzStreamEngine(f *testing.F) {
	for _, c := range oracleCorpus {
		f.Add(c.seed, c.pipes, c.events, c.windowEvents, c.windowMicros, c.rate, c.flags)
	}
	f.Fuzz(func(t *testing.T, seed uint64, pipes uint8, events uint16, windowEvents uint8, windowMicros, rate uint16, flags uint8) {
		c := fuzzCase{seed, pipes, events, windowEvents, windowMicros, rate, flags}
		got, err := c.serve(false)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		want, err := c.serve(true)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if got != want {
			t.Fatalf("%+v: windowed loop differs from the per-event loop\n%s", c, firstDiff(got, want))
		}
	})
}

// firstDiff renders the first differing line of two traces.
func firstDiff(got, want string) string {
	g, w := bytes.Split([]byte(got), []byte("\n")), bytes.Split([]byte(want), []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(g), len(w))
}
