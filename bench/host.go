package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// meter measures one episode's serving phase on the host: wall clock,
// process CPU time (user + system, from getrusage) and bytes allocated.
// A nil meter measures nothing, so the untimed passes share the episode
// code.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	alloc0 uint64

	wall, cpu time.Duration
	alloc     uint64
	ops       int64
}

// start collects the garbage the episode's preparation left behind, so
// every episode starts from the same heap, then starts the clocks.
func (m *meter) start() {
	if m == nil {
		return
	}
	runtime.GC()
	m.alloc0 = totalAlloc()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

// stop ends the measurement of ops served.
func (m *meter) stop(ops int64) {
	if m == nil {
		return
	}
	m.wall = time.Since(m.t0)
	m.cpu = cpuTime() - m.cpu0
	m.alloc = totalAlloc() - m.alloc0
	m.ops = ops
}

// add accumulates another measurement into m.
func (m *meter) add(o *meter) {
	m.wall += o.wall
	m.cpu += o.cpu
	m.alloc += o.alloc
	m.ops += o.ops
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// Layers whose public trace hooks the tracer counts.
const (
	hookRuntime = iota
	hookFleet
	hookRegion
	hookStream
	numHooks
)

var hookNames = [numHooks]string{"runtime", "fleet", "region", "stream"}

// spanEvery keeps full spans for one op in this many; durations are kept
// for every op.
const spanEvery = 64

// tracer times every call the benchmark makes into a layer. The durations
// of all calls feed the per-layer host metrics; spans (name, start, end,
// id, parent, op) are kept for set-up, episodes, and every spanEvery-th op
// with the calls inside it, and are written as Chrome trace-event JSON
// when the run ends. A nil tracer records nothing: every method is a nil
// check, so untraced episodes pay nothing for the instrumentation.
type tracer struct {
	origin time.Time
	durs   map[string][]float64 // seconds per call, keyed by span name
	spans  []span
	stack  []open
	nextID int64
	// hooks counts events delivered through the layers' public trace
	// hooks; fleet site workers may deliver them off the load generator's goroutine.
	hooks [numHooks]atomic.Int64
}

type span struct {
	name       string
	start, end time.Duration
	id, parent int64
	op         int64
}

type open struct {
	name string
	t0   time.Time
	id   int64
	op   int64
	keep bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), durs: make(map[string][]float64)}
}

// begin opens a span. op >= 0 opens the span of op number op, kept for
// every spanEvery-th op; op < 0 opens a call inside the enclosing span,
// kept when that span is.
func (t *tracer) begin(name string, op int64) {
	if t == nil {
		return
	}
	keep := true
	parentOp := int64(-1)
	if n := len(t.stack); n > 0 {
		keep = t.stack[n-1].keep
		parentOp = t.stack[n-1].op
	}
	if op >= 0 {
		keep = keep && op%spanEvery == 0
	} else {
		op = parentOp
	}
	t.nextID++
	t.stack = append(t.stack, open{name: name, id: t.nextID, op: op, keep: keep, t0: time.Now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t1 := time.Now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	t.durs[o.name] = append(t.durs[o.name], t1.Sub(o.t0).Seconds())
	if !o.keep {
		return
	}
	parent := int64(0)
	if n > 0 {
		parent = t.stack[n-1].id
	}
	t.spans = append(t.spans, span{name: o.name, start: o.t0.Sub(t.origin), end: t1.Sub(t.origin),
		id: o.id, parent: parent, op: o.op})
}

// hook returns a counter for one layer's trace hook, or nil for a nil
// tracer (the layer then keeps its hook unset).
func (t *tracer) hook(layer int) func() {
	if t == nil {
		return nil
	}
	return func() { t.hooks[layer].Add(1) }
}

// writeChrome writes the kept spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Cat  string           `json:"cat"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		evs = append(evs, event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int64{"id": s.id, "parent": s.parent, "op": s.op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
