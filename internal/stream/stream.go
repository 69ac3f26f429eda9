// Package stream is the streaming serving tier of the EVEREST runtime:
// long-lived pipelines over the driver deployments' continuous feeds
// (traffic sensors, smart meters, weather stations) instead of discrete
// workflow submissions. Modelled open arrival processes (Poisson, bursty,
// diurnal) feed windowed operators derived from the application DAG
// stages; windows flow through bounded inter-stage queues whose overload
// policy is set per tenant SLO class (best-effort pipelines shed load,
// guaranteed pipelines apply backpressure and never drop); and accelerated
// operators keep their kernels resident in partial-reconfiguration regions
// of the shared FPGAs, so a stage change swaps only the region that
// changes instead of reprogramming the whole card (Diba-style
// reconfigurable stream processing).
//
// The engine is a single-threaded discrete-event simulation over the
// runtime.TimeHeap event core: all time is modelled seconds, and the
// event order is a total deterministic order (time, then a fixed
// per-pipeline event slot). The step that opens a window admits all of
// its arrivals at once, drawing the pipeline's gaps in its own order,
// because until the window closes they touch nothing outside the
// pipeline; only the close is scheduled, at the (time, slot) key an
// event-by-event loop would close it at. The heap holds at most one
// source entry per pipeline plus one completion per busy stage, and the
// steady-state path allocates nothing — which is what keeps
// million-event feeds wall-clock feasible and trace streams
// byte-identical across GOMAXPROCS settings.
package stream

import (
	"fmt"
	"math"

	"everest/internal/platform"
)

// Policy is a tenant SLO class's overload behaviour at a full bounded
// queue.
type Policy int

// Overload policies.
const (
	// Shed drops the window that finds its downstream queue full —
	// best-effort tenants trade completeness for bounded latency.
	Shed Policy = iota
	// Block applies backpressure: a full downstream queue stalls the
	// upstream stage, and overload accumulates in an unbounded ingress
	// buffer instead of being dropped — guaranteed tenants trade latency
	// for completeness.
	Block
)

func (p Policy) String() string {
	if p == Block {
		return "block"
	}
	return "shed"
}

// StageSpec is one windowed operator of a pipeline. Costs are per event;
// serving a window of W events costs W times the per-event work (plus a
// kernel swap when an accelerated stage's bitstream is not resident on its
// device).
type StageSpec struct {
	Name string
	// Software cost model of one event, priced on the host node's CPU.
	FlopsPerEvent float64
	BytesPerEvent int64
	Cores         int // software parallelism (0 = all cores)
	// Accelerated stages carry their compiled kernel: a non-empty
	// Bitstream.ID requests FPGA service at FPGASecondsPerEvent.
	Bitstream           platform.Bitstream
	FPGASecondsPerEvent float64
}

// fpga reports whether the stage requests accelerator service.
func (s *StageSpec) fpga() bool { return s.Bitstream.ID != "" }

// PipelineSpec is one long-lived stream: an arrival process, a windowing
// discipline, and a chain of stage operators.
type PipelineSpec struct {
	Name   string
	Tenant string
	// Policy is the tenant's SLO class overload behaviour.
	Policy Policy
	// Arrivals generates the event train (required). Each pipeline needs
	// its own process: New rejects one shared with an earlier pipeline.
	Arrivals Arrivals
	// Events is the number of events the source generates (required > 0);
	// the run drains after the last arrival.
	Events int
	// WindowEvents closes a window when it holds this many events
	// (default 64).
	WindowEvents int
	// WindowSeconds flushes an undersized window this long after its first
	// event (0 = size-triggered closes only).
	WindowSeconds float64
	// Stages is the operator chain (required non-empty).
	Stages []StageSpec
}

// Config configures a streaming Engine. Every inter-stage queue holds
// four windows.
type Config struct {
	// Cluster hosts the pipelines (required). Software operators price on
	// the node CPUs; accelerated operators share the cluster's FPGAs.
	Cluster *platform.Cluster
	// PartialReconfig keeps several kernels resident per device in PR
	// region slots and swaps only the region that changes; off, a device
	// holds one whole-device image at a time and every kernel alternation
	// pays a full reconfiguration.
	PartialReconfig bool
	// Trace, when set, receives window-level events (close/shed/swap/done)
	// in deterministic modelled-time order.
	Trace func(Event)
}

// EventKind classifies stream trace events.
type EventKind int

// Stream trace event kinds.
const (
	// EventWindowClose fires when a window fills (or its age flush fires)
	// and enters the stage chain.
	EventWindowClose EventKind = iota
	// EventShed fires when an overloaded queue drops a window (Shed
	// policy).
	EventShed
	// EventSwap fires when a device loads a kernel that was not resident
	// (a PR region swap, or a whole-device reprogram).
	EventSwap
	// EventWindowDone fires when a window clears the final stage.
	EventWindowDone
)

func (k EventKind) String() string {
	switch k {
	case EventWindowClose:
		return "window-close"
	case EventShed:
		return "shed"
	case EventSwap:
		return "swap"
	case EventWindowDone:
		return "window-done"
	}
	return "unknown"
}

// Event is one stream trace record.
type Event struct {
	Kind      EventKind
	Pipeline  string
	Stage     string
	Device    string // "node00/dev0" (swap events)
	Bitstream string
	Time      float64 // modelled seconds
	Events    int     // events in the window involved
}

// StageStats is one operator's serving counters.
type StageStats struct {
	Name        string
	Windows     int64   // windows served
	BusySeconds float64 // modelled service time, swaps included
	ShedWindows int64   // windows dropped at this stage's input queue
	ShedEvents  int64
}

// PipelineStats is one pipeline's outcome.
type PipelineStats struct {
	Name    string
	Tenant  string
	Events  int64 // generated by the source
	Done    int64 // events that cleared the final stage
	Shed    int64 // events dropped by overload policy
	Windows int64 // windows that entered the stage chain
	P50     float64
	P99     float64
	Mean    float64
	Max     float64
	Stages  []StageStats
}

// DeviceStats is one accelerator's residency churn.
type DeviceStats struct {
	Name        string // "node00/dev0"
	Regions     int    // region slots in use (1 = whole-device)
	Kernels     int    // distinct kernels assigned to the device
	Swaps       int64  // kernel loads paid (beyond each kernel's first)
	SwapSeconds float64
}

// Stats is the outcome of one streaming run.
type Stats struct {
	Events      int64 // generated across pipelines
	Done        int64
	Shed        int64
	Windows     int64
	Makespan    float64 // modelled completion of the last window
	Throughput  float64 // Done / Makespan, events per modelled second
	P50         float64 // end-to-end event latency percentiles
	P99         float64
	Mean        float64
	Max         float64
	Swaps       int64
	SwapSeconds float64
	Pipelines   []PipelineStats
	Devices     []DeviceStats
}

// validate checks a pipeline spec and applies defaults.
func (p *PipelineSpec) validate(i int) error {
	if p.Name == "" {
		p.Name = fmt.Sprintf("pipe%02d", i)
	}
	if p.Tenant == "" {
		p.Tenant = "default"
	}
	if p.Arrivals == nil {
		return fmt.Errorf("stream: pipeline %s has no arrival process", p.Name)
	}
	if p.Events <= 0 {
		return fmt.Errorf("stream: pipeline %s has no event budget", p.Name)
	}
	if p.WindowEvents <= 0 {
		p.WindowEvents = 64
	}
	if invalid(p.WindowSeconds) {
		return fmt.Errorf("stream: pipeline %s has WindowSeconds %v, want finite and >= 0", p.Name, p.WindowSeconds)
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("stream: pipeline %s has no stages", p.Name)
	}
	for k := range p.Stages {
		st := &p.Stages[k]
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"FlopsPerEvent", st.FlopsPerEvent},
			{"BytesPerEvent", float64(st.BytesPerEvent)},
			{"FPGASecondsPerEvent", st.FPGASecondsPerEvent},
		} {
			if invalid(c.v) {
				return fmt.Errorf("stream: pipeline %s stage %s has %s %v, want finite and >= 0", p.Name, st.Name, c.name, c.v)
			}
		}
	}
	return nil
}

// invalid reports a cost or duration that is negative, NaN or infinite.
func invalid(v float64) bool { return !(v >= 0) || math.IsInf(v, 1) }
