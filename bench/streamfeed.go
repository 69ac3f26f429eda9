package main

import (
	"fmt"
	"time"

	"everest/internal/sdk"
	"everest/internal/stream"
)

// stream-feed is the E-stream feed: 4 traffic/energy pipelines, Block and
// Shed tenants alternating, partial reconfiguration on, Poisson arrivals
// seeded through StreamScenario.Seed. An op is one event.
const (
	sfPipelines  = 4
	sfEvents     = 500000 // per pipeline
	sfTinyEvents = 2000
)

type streamFeed struct {
	seed   uint64
	events int
	srv    *sdk.StreamServer
}

func newStreamFeed(seed uint64, tiny bool) workload {
	w := &streamFeed{seed: seed, events: sfEvents}
	if tiny {
		w.events = sfTinyEvents
	}
	return w
}

func (w *streamFeed) build(tr *tracer) (time.Duration, int, error) {
	// NewStreamServer compiles the apps' kernels and derives their
	// operator chains; the compile span covers both.
	tr.begin("variants.compile", -1)
	t0 := time.Now()
	srv, err := sdk.NewStreamServer(sdk.StreamScenario{
		Nodes: 1, Apps: []string{"traffic", "energy"}, Pipelines: sfPipelines,
		Events: w.events, WindowEvents: 64, WindowSeconds: 0.05,
		PartialReconfig: true,
		Seed:            episodeRNG(w.seed, 0).Uint64() | 1, // 0 would mean "default"
	})
	compile := time.Since(t0)
	tr.end()
	if err != nil {
		return 0, 0, err
	}
	w.srv = srv
	kernels := make(map[string]bool)
	specs := srv.Pipelines(1)
	for _, p := range specs {
		for _, s := range p.Stages {
			if s.Bitstream.ID != "" {
				kernels[s.Bitstream.ID] = true
			}
		}
	}
	if _, err := w.engine(specs, nil); err != nil {
		return 0, 0, err
	}
	return compile, len(kernels), nil
}

func (w *streamFeed) engine(specs []stream.PipelineSpec, trace func(stream.Event)) (*stream.Engine, error) {
	return stream.New(stream.Config{
		Cluster:         sdk.DefaultCluster(w.srv.Scenario().Nodes),
		PartialReconfig: true,
		Trace:           trace,
	}, specs)
}

// The stream server's arrivals are seeded once per build, so every
// episode serves the same feed: stream-feed has one episode.
func (w *streamFeed) episode(_ int, rate float64, rec *record, tr *tracer, m *meter) error {
	specs := w.srv.Pipelines(rate)
	var rc *streamRecon
	var trace func(stream.Event)
	switch {
	case m == nil:
		// The untimed pass rebuilds every event's latency from the trace.
		rc = newStreamRecon(specs)
		trace = rc.observe
	case tr != nil:
		hook := tr.hook(hookStream)
		trace = func(stream.Event) { hook() }
	}
	eng, err := w.engine(specs, trace)
	if err != nil {
		return err
	}
	m.start()
	tr.begin("episode", -1)
	tr.begin("stream.run", -1)
	st, err := eng.Run()
	tr.end()
	tr.end()
	m.stop(st.Events)
	if err != nil {
		return err
	}
	w.fold(rec, st, rc)
	return nil
}

func (w *streamFeed) fold(rec *record, st stream.Stats, rc *streamRecon) {
	d := newDigest()
	rec.attempted += st.Events
	rec.completed += st.Done
	rec.shed += st.Shed
	rec.span += st.Makespan
	if st.Done+st.Shed != st.Events {
		rec.fail("stream served %d and shed %d of %d events", st.Done, st.Shed, st.Events)
	}
	if rc != nil {
		rc.check(rec, st)
	}
	rec.count("stream.events", float64(st.Events))
	rec.count("stream.shed", float64(st.Shed))
	rec.count("stream.windows", float64(st.Windows))
	rec.count("stream.swaps", float64(st.Swaps))
	rec.count("stream.swap_s", st.SwapSeconds)
	for _, x := range []int64{st.Events, st.Done, st.Shed, st.Windows, st.Swaps} {
		d.i(x)
	}
	for _, x := range []float64{st.Makespan, st.P50, st.P99, st.Mean, st.Max, st.SwapSeconds} {
		d.f(x)
	}
	for _, p := range st.Pipelines {
		d.s(p.Name)
		for _, x := range []int64{p.Events, p.Done, p.Shed, p.Windows} {
			d.i(x)
		}
		for _, x := range []float64{p.P50, p.P99, p.Mean, p.Max} {
			d.f(x)
		}
		for _, s := range p.Stages {
			d.i(s.Windows)
			d.i(s.ShedEvents)
			d.f(s.BusySeconds)
		}
	}
	rec.digests = append(rec.digests, d.sum())
}

// streamRecon rebuilds every event's end-to-end latency from the stream
// tier's public surface. A recorder around each pipeline's arrival
// process sees every arrival time in order; the window trace says how
// many arrivals each window took and when it cleared the last stage.
// Windows of one pipeline pass every stage in FIFO order, so each done
// window is the oldest one still in flight. A window shed at the first
// stage is the one that just closed; one shed further in cannot be told
// apart from the others in flight, and then the latencies are unknown.
type streamRecon struct {
	pipes   map[string]*reconPipe
	lat     []float64
	unknown bool
	errs    []string
}

type reconPipe struct {
	first    string // first stage's name
	arrivals *arrivalRecorder
	next     int      // arrivals taken by closed windows
	inflight [][2]int // [first arrival, count] per window, oldest first
}

// arrivalRecorder passes an arrival process through, accumulating the
// arrival times exactly as the engine does (each one the previous plus
// the next gap).
type arrivalRecorder struct {
	src   stream.Arrivals
	t     float64
	times []float64
}

func (a *arrivalRecorder) Next() float64 {
	g := a.src.Next()
	a.t += g
	a.times = append(a.times, a.t)
	return g
}

func newStreamRecon(specs []stream.PipelineSpec) *streamRecon {
	rc := &streamRecon{pipes: make(map[string]*reconPipe, len(specs))}
	events := 0
	for i := range specs {
		events += specs[i].Events
	}
	rc.lat = make([]float64, 0, events)
	for i := range specs {
		p := &specs[i]
		rec := &arrivalRecorder{src: p.Arrivals, times: make([]float64, 0, p.Events)}
		p.Arrivals = rec
		rc.pipes[p.Name] = &reconPipe{first: p.Stages[0].Name, arrivals: rec}
	}
	return rc
}

func (rc *streamRecon) observe(ev stream.Event) {
	p := rc.pipes[ev.Pipeline]
	switch ev.Kind {
	case stream.EventWindowClose:
		p.inflight = append(p.inflight, [2]int{p.next, ev.Events})
		p.next += ev.Events
	case stream.EventShed:
		if ev.Stage != p.first {
			rc.unknown = true
			return
		}
		p.inflight = p.inflight[:len(p.inflight)-1]
	case stream.EventWindowDone:
		if rc.unknown {
			return
		}
		win := p.inflight[0]
		p.inflight = p.inflight[1:]
		if win[1] != ev.Events {
			rc.errs = append(rc.errs, fmt.Sprintf("%s: a window of %d events finished where %d were in flight",
				ev.Pipeline, ev.Events, win[1]))
			rc.unknown = true
			return
		}
		for _, a := range p.arrivals.times[win[0] : win[0]+win[1]] {
			rc.lat = append(rc.lat, ev.Time-a)
		}
	}
}

// histSlack is the widest step of the stream tier's latency histogram:
// its percentiles are the upper edge of the bucket holding the
// nearest-rank sample, at most 12.5% above it.
const histSlack = 1.125

// check moves the rebuilt latencies into rec and checks them against the
// engine's own histogram percentiles.
func (rc *streamRecon) check(rec *record, st stream.Stats) {
	for _, e := range rc.errs {
		rec.fail("stream trace: %s", e)
	}
	if rc.unknown {
		return // no latency observed: the rung's percentiles read missing
	}
	if int64(len(rc.lat)) != st.Done {
		rec.fail("stream trace rebuilt %d latencies for %d events done", len(rc.lat), st.Done)
		return
	}
	for _, q := range []struct{ q, engine float64 }{{0.50, st.P50}, {0.99, st.P99}} {
		exact, ok := pct(rc.lat, q.q)
		if ok && !(exact <= q.engine && q.engine <= exact*histSlack) {
			rec.fail("stream p%g: trace gives %.9g s, the engine's histogram %.9g s", 100*q.q, exact, q.engine)
		}
	}
	if rec.lat == nil {
		rec.lat = rc.lat // the feed's one episode: no copy of millions of samples
	} else {
		rec.lat = append(rec.lat, rc.lat...)
	}
	for i := int64(0); i < st.Shed; i++ {
		rec.miss()
	}
}
