package sdk

import (
	"fmt"

	"everest/internal/apps"
	"everest/internal/runtime"
	"everest/internal/stream"
)

// This file is the SDK face of the streaming tier (internal/stream): the
// E-stream scenario turns the registered EVEREST use-case applications
// into long-lived sensor-feed pipelines — each app's DAG stages become
// windowed operators, its compiled kernels stay resident in FPGA partial-
// reconfiguration regions — and StreamServer sweeps the offered event
// rate to find the sustained events/sec the cluster serves inside the p99
// latency SLO, the capacity number BenchmarkStreamThroughput gates in CI.

// StreamScenario configures one E-stream serving run: a million-sensor
// traffic/energy feed over a small shared cluster.
type StreamScenario struct {
	// Nodes is the compute-node count (DefaultCluster shape: adds one
	// cloudFPGA node; default 1, so the suite's distinct kernels contend
	// for two FPGAs and kernel residency matters).
	Nodes int
	// Apps names the workload-registry applications served as pipelines
	// (default traffic + energy, the paper's continuous feeds).
	Apps []string
	// Pipelines is the number of concurrent pipelines, assigned round-robin
	// over Apps (default 2x len(Apps)).
	Pipelines int
	// Events is the event budget per pipeline (default 250000; the default
	// four pipelines then sum to the million-event feed).
	Events int
	// Rate is the per-pipeline mean arrival rate in events per modelled
	// second (default 4000, just inside the energy featurize stage's
	// ~4300 ev/s software capacity — the suite's bottleneck operator).
	Rate float64
	// Arrival picks the arrival process: "poisson" (default), "bursty", or
	// "diurnal" (stream.NewArrivals).
	Arrival string
	// WindowEvents closes an operator window at this many events
	// (default 64); WindowSeconds age-flushes undersized windows
	// (default 0.05).
	WindowEvents  int
	WindowSeconds float64
	// PartialReconfig keeps several kernels resident per device in PR
	// region slots; off, every kernel alternation reprograms a whole card.
	PartialReconfig bool
	// SLO is the p99 end-to-end event latency target in modelled seconds
	// (default 0.25).
	SLO float64
	// Seed drives the arrival processes (default 1).
	Seed uint64
	// Trace receives stream events during runs when set.
	Trace func(stream.Event)
}

// DefaultStreamScenario is the E-stream configuration: four pipelines —
// traffic map-matching and energy prediction, alternating guaranteed
// (Block) and best-effort (Shed) tenants — totalling one million events
// over one compute node plus the cloudFPGA node, with partial
// reconfiguration on so the three distinct kernels stay resident across
// two FPGAs.
func DefaultStreamScenario() StreamScenario {
	return StreamScenario{
		Nodes:           1,
		Apps:            []string{"traffic", "energy"},
		Pipelines:       4,
		Events:          250000,
		Rate:            4000,
		Arrival:         "poisson",
		WindowEvents:    64,
		WindowSeconds:   0.05,
		PartialReconfig: true,
		SLO:             0.25,
		Seed:            1,
	}
}

// withDefaults fills zero fields.
func (sc StreamScenario) withDefaults() StreamScenario {
	if sc.Nodes < 1 {
		sc.Nodes = 1
	}
	if len(sc.Apps) == 0 {
		sc.Apps = []string{"traffic", "energy"}
	}
	if sc.Pipelines <= 0 {
		sc.Pipelines = 2 * len(sc.Apps)
	}
	if sc.Events <= 0 {
		sc.Events = 250000
	}
	if sc.Rate <= 0 {
		sc.Rate = 4000
	}
	if sc.Arrival == "" {
		sc.Arrival = "poisson"
	}
	if sc.WindowEvents <= 0 {
		sc.WindowEvents = 64
	}
	if sc.WindowSeconds == 0 {
		sc.WindowSeconds = 0.05
	}
	if sc.SLO <= 0 {
		sc.SLO = 0.25
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	return sc
}

// StreamServer serves the E-stream scenario: the application suite is
// compiled once (shared across the rate ladder), each app's DAG is
// linearized into per-event windowed operators, and every run builds a
// fresh cluster so device residency starts cold.
type StreamServer struct {
	sc    StreamScenario
	suite *apps.Suite
	// stages caches each app's derived operator chain; the per-run pipeline
	// specs only vary arrivals, policy, and budget around them.
	stages map[string][]stream.StageSpec
}

// NewStreamServer compiles the scenario's applications and derives their
// streaming operator chains.
func NewStreamServer(sc StreamScenario) (*StreamServer, error) {
	sc = sc.withDefaults()
	switch sc.Arrival {
	case "poisson", "bursty", "diurnal":
	default:
		return nil, fmt.Errorf("sdk: unknown arrival process %q (want poisson, bursty, or diurnal)", sc.Arrival)
	}
	suite, err := apps.BuildSuite(apps.DefaultOptions(), sc.Apps...)
	if err != nil {
		return nil, err
	}
	s := &StreamServer{sc: sc, suite: suite, stages: make(map[string][]stream.StageSpec)}
	for _, a := range suite.Apps {
		chain, err := appStages(a)
		if err != nil {
			return nil, err
		}
		s.stages[a.Name] = chain
	}
	return s, nil
}

// Scenario returns the server's effective (defaulted) scenario.
func (s *StreamServer) Scenario() StreamScenario { return s.sc }

// appStages linearizes an application's DAG into a streaming operator
// chain: tasks in submission (dependency) order, batch costs divided by
// the app's BatchEvents, and every accelerable stage carrying its
// compiled bitstream with the FPGA operating-point latency amortized per
// event.
func appStages(a *apps.App) ([]stream.StageSpec, error) {
	if a.BatchEvents <= 0 {
		return nil, fmt.Errorf("sdk: app %s declares no batch event count", a.Name)
	}
	batch := float64(a.BatchEvents)
	w := a.Workflow(0)
	var chain []stream.StageSpec
	for _, name := range w.Tasks() {
		spec, _ := w.Get(name)
		st := stream.StageSpec{
			Name:          name,
			FlopsPerEvent: spec.Flops / batch,
			BytesPerEvent: (spec.InputBytes + spec.OutputBytes) / int64(a.BatchEvents),
			Cores:         spec.Cores,
		}
		if c, ok := a.Kernel(name); ok {
			if p, ok := c.Point(runtime.VariantFPGA.String()); ok {
				st.Bitstream = c.Design.Bitstream
				st.FPGASecondsPerEvent = p.LatencySeconds / batch
				// Software fallback cost if the device detaches mid-run.
				st.FlopsPerEvent = c.Flops / batch
				st.BytesPerEvent = (c.InputBytes + c.OutputBytes) / int64(a.BatchEvents)
			}
		}
		chain = append(chain, st)
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("sdk: app %s has no stages", a.Name)
	}
	return chain, nil
}

// Pipelines builds the scenario's pipeline specs at a per-pipeline rate:
// apps round-robin across pipelines, tenants alternate guaranteed (Block)
// and best-effort (Shed), and each pipeline draws an independent seeded
// arrival process.
func (s *StreamServer) Pipelines(rate float64) []stream.PipelineSpec {
	specs := make([]stream.PipelineSpec, s.sc.Pipelines)
	for i := range specs {
		a := s.suite.Apps[i%len(s.suite.Apps)]
		policy, tenant := stream.Block, "guaranteed"
		if i%2 == 1 {
			policy, tenant = stream.Shed, "besteffort"
		}
		specs[i] = stream.PipelineSpec{
			Name:          fmt.Sprintf("%s%02d", a.Name, i),
			Tenant:        tenant,
			Policy:        policy,
			Arrivals:      stream.NewArrivals(s.sc.Arrival, rate, s.sc.Seed*1000+uint64(i)),
			Events:        s.sc.Events,
			WindowEvents:  s.sc.WindowEvents,
			WindowSeconds: s.sc.WindowSeconds,
			Stages:        s.stages[a.Name],
		}
	}
	return specs
}

// Run serves the scenario once at its configured rate.
func (s *StreamServer) Run() (stream.Stats, error) { return s.RunAt(s.sc.Rate) }

// RunAt serves the scenario once at the given per-pipeline rate on a
// fresh cluster (cold device residency, cold caches).
func (s *StreamServer) RunAt(rate float64) (stream.Stats, error) {
	e, err := stream.New(stream.Config{
		Cluster:         DefaultCluster(s.sc.Nodes),
		PartialReconfig: s.sc.PartialReconfig,
		Trace:           s.sc.Trace,
	}, s.Pipelines(rate))
	if err != nil {
		return stream.Stats{}, err
	}
	return e.Run()
}

// StreamPoint is one rung of the offered-rate ladder.
type StreamPoint struct {
	Rate       float64 // offered events per modelled second, per pipeline
	Throughput float64 // achieved events per modelled second, all pipelines
	P50        float64
	P99        float64
	Done       int64
	Shed       int64
	Swaps      int64
	SLOMet     bool
}

func (p StreamPoint) offered() float64  { return p.Rate }
func (p StreamPoint) achieved() float64 { return p.Throughput }
func (p StreamPoint) met() bool         { return p.SLOMet }

// DefaultStreamRates is the standard offered-load ladder: per-pipeline
// event rates climbing from well under capacity (the bottleneck operator
// sustains ~4300 ev/s) to far past it.
func DefaultStreamRates() []float64 {
	return []float64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 12000}
}

// Saturate serves the scenario once per rate rung (the default ladder
// when rates is empty) and returns every measured point plus the best
// one: the highest achieved throughput among rungs that sustained the
// SLO — p99 end-to-end latency inside the target with no more than 0.1%
// of the feed shed. A zero best means no rung met it.
func (s *StreamServer) Saturate(rates []float64) ([]StreamPoint, StreamPoint, error) {
	if len(rates) == 0 {
		rates = DefaultStreamRates()
	}
	return climb(rates, "rate", func(r float64) (StreamPoint, error) {
		st, err := s.RunAt(r)
		return StreamPoint{
			Rate: r, Throughput: st.Throughput,
			P50: st.P50, P99: st.P99,
			Done: st.Done, Shed: st.Shed, Swaps: st.Swaps,
			SLOMet: st.P99 <= s.sc.SLO && float64(st.Shed) <= 0.001*float64(st.Events),
		}, err
	})
}

// SwapWin measures the partial-reconfiguration payoff at the scenario's
// configured rate: the same feed served with per-region residency on and
// off. It returns both runs' stats; the win is the whole-device run's
// reload churn (swap seconds) eliminated by the PR floorplan and the p99
// it buys back.
func (s *StreamServer) SwapWin() (on, off stream.Stats, err error) {
	saved := s.sc.PartialReconfig
	s.sc.PartialReconfig = true
	on, err = s.Run()
	if err == nil {
		s.sc.PartialReconfig = false
		off, err = s.Run()
	}
	s.sc.PartialReconfig = saved
	return on, off, err
}
