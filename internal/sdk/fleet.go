package sdk

import (
	"errors"
	"fmt"

	"everest/internal/apps"
	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/variants"
)

// This file is the SDK face of the federation tier (internal/fleet): a
// FleetServer front that shards submissions across N engine sites behind
// one door — the fleet-scale analogue of one runtime.Engine — plus the
// E-fleet scenario serving mixed compiled and hand-declared workloads across
// federated sites under bitstream-cache churn and unplug faults.

// FleetConfig configures a FleetServer. Sites program whole devices;
// partial reconfiguration is a region-tier setting (RegionConfig).
type FleetConfig struct {
	// Sites is the number of federated engine sites (>= 1).
	Sites int
	// NodesPerSite is the compute-node count of each site's cluster
	// (DefaultCluster shape: adds one cloudFPGA node; default 2).
	NodesPerSite int
	// CacheSlots bounds each site's resident bitstreams (default 1).
	CacheSlots int
	// Policy selects each site engine's placement strategy.
	Policy runtime.Policy
	// Adaptive enables variant-aware scheduling per site.
	Adaptive bool
	// MaxQueueSeconds is the admission bound: when every site's modelled
	// queue wait exceeds it, Submit rejects with fleet.ErrSaturated.
	// 0 = unlimited.
	MaxQueueSeconds float64
	// Net names the intra-site transfer stack ("" = flat cluster fabric).
	Net string
	// RegistryNet names the registry→site deploy fabric ("" = eth100g).
	RegistryNet string
	// DatasetStoreBytes bounds each site's named-dataset store (fleet.Config
	// semantics: 0 = default 256 MiB, negative = unbounded).
	DatasetStoreBytes int64
	// PlacementBlind disables data-locality pricing in the router; data is
	// still fetched and cached, it just no longer steers placement (the
	// contrast arm of the locality benchmark).
	PlacementBlind bool
	// SiteEvents scripts per-site modelled-time faults (index = site).
	SiteEvents [][]runtime.EnvEvent
	// Trace receives fleet events (routing, cache, deploys) when set.
	Trace func(fleet.Event)
	// EngineTrace receives every site engine's runtime events tagged with
	// the site name, serialized with the fleet events (fleet.Config
	// semantics). The determinism harness captures both streams through it.
	EngineTrace func(site string, ev runtime.Event)
}

// FleetServer is the multi-site submission front: one registry shared by
// all sites, a router placing each workflow, and per-site serial serving.
// The fleet owns the registry; Publish writes it under the fleet lock.
type FleetServer struct {
	fl *fleet.Fleet
}

// NewFleetServer builds the federation: cfg.Sites independent clusters
// (DefaultCluster shape) behind one router and one bitstream registry.
func NewFleetServer(cfg FleetConfig) (*FleetServer, error) {
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("sdk: fleet needs >= 1 site, got %d", cfg.Sites)
	}
	if cfg.NodesPerSite < 1 {
		cfg.NodesPerSite = 2
	}
	net, err := stackByName(cfg.Net)
	if err != nil {
		return nil, err
	}
	regNet, err := stackByName(cfg.RegistryNet)
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(platform.NewRegistry(), fleet.Config{
		Sites:             cfg.Sites,
		NewCluster:        func(int) *platform.Cluster { return DefaultCluster(cfg.NodesPerSite) },
		CacheSlots:        cfg.CacheSlots,
		Policy:            cfg.Policy,
		Adaptive:          cfg.Adaptive,
		MaxQueueSeconds:   cfg.MaxQueueSeconds,
		Net:               net,
		RegistryNet:       regNet,
		DatasetStoreBytes: cfg.DatasetStoreBytes,
		PlacementBlind:    cfg.PlacementBlind,
		SiteEvents:        cfg.SiteEvents,
		Trace:             cfg.Trace,
		EngineTrace:       cfg.EngineTrace,
	})
	if err != nil {
		return nil, err
	}
	return &FleetServer{fl: fl}, nil
}

// Fleet exposes the underlying federation tier.
func (fs *FleetServer) Fleet() *fleet.Fleet { return fs.fl }

// Publish stores a bitstream in the federation registry; sites deploy
// from it on demand (cache misses pay the transfer + reconfiguration).
// After Shutdown it returns runtime.ErrShutDown.
func (fs *FleetServer) Publish(bs platform.Bitstream) error { return fs.fl.Publish(bs) }

// Start brings every site engine up. After Shutdown, or a Start that
// failed, it returns runtime.ErrShutDown.
func (fs *FleetServer) Start() error { return fs.fl.Start() }

// SubmitAt routes one workflow arriving at the given modelled time and
// serves it to completion before returning, so the ticket is already
// resolved; admission rejections return fleet.ErrSaturated, and after
// Shutdown it returns runtime.ErrShutDown.
func (fs *FleetServer) SubmitAt(tenant, name string, w *runtime.Workflow, arrival float64) (*fleet.Ticket, error) {
	return fs.fl.Submit(fleet.Request{Tenant: tenant, Name: name, Workflow: w, Arrival: arrival})
}

// SubmitGuaranteedAt routes one workflow through the proven-bound
// admission class: it is accepted only on a site whose modelled worst case
// fits within deadline seconds of the arrival, and refused with
// fleet.ErrSaturated otherwise (nothing is served on refusal — callers
// typically degrade to SubmitAt). After Shutdown it returns
// runtime.ErrShutDown.
func (fs *FleetServer) SubmitGuaranteedAt(tenant, name string, w *runtime.Workflow, arrival, deadline float64) (*fleet.Ticket, error) {
	return fs.fl.Submit(fleet.Request{Tenant: tenant, Name: name, Workflow: w, Arrival: arrival,
		Guaranteed: true, Deadline: deadline})
}

// FleetServerStats is the final accounting of a fleet serving run.
type FleetServerStats struct {
	Fleet fleet.Stats
}

// Shutdown stops every site engine and returns the final stats; every
// later mutating call returns runtime.ErrShutDown.
func (fs *FleetServer) Shutdown() FleetServerStats {
	return FleetServerStats{Fleet: fs.fl.Shutdown()}
}

// ---------------------------------------------------------------------------
// E-fleet scenario

// FleetScenario bundles one run of the fleet-serving experiment: mixed
// compiled and hand-declared workloads from many tenants arriving over
// modelled time, served by a federation of engine sites with bounded
// bitstream caches, with an accelerator unplug hitting the first site
// mid-run. The embedded FleetConfig is the federation it serves on
// (SiteEvents scripts the faults; Trace and EngineTrace see the run);
// the other fields shape the workload. Workflows are submitted in arrival
// order and awaited one at a time, so every modelled number — and the
// merged fleet+engine trace the determinism test hashes — is exactly
// deterministic across GOMAXPROCS while site timelines still overlap in
// modelled time.
type FleetScenario struct {
	FleetConfig
	Tenants   int
	Workflows int
	// ArrivalGap is the open-mode interarrival (modelled seconds); in
	// closed mode it staggers the clients' initial arrivals instead.
	ArrivalGap float64
	// Closed selects the closed-loop arrival mode: Tenants clients, each
	// submitting its next workflow the moment its previous one completes.
	Closed bool
	// GuaranteedEvery > 0 submits every GuaranteedEvery-th workflow (index
	// 0, GuaranteedEvery, ...) through the proven-bound admission class
	// with GuaranteedDeadline (> 0) as its relative latency bound. A
	// refusal (fleet.ErrSaturated: no site can prove the deadline) is
	// counted and the workflow degrades to best-effort, so the served
	// stream is identical either way.
	GuaranteedEvery    int
	GuaranteedDeadline float64
	// SLO is the p95 latency target the saturation metric gates on.
	SLO float64
	// Apps selects the mixed application-suite mode: the named workload-
	// registry applications (internal/apps; empty slice entries invalid)
	// are interleaved deterministically across tenants instead of the
	// default windpower/hand-declared mix. Serve it with RunSuite /
	// SaturateSuite around a suite from BuildSuite.
	Apps []string
}

// DefaultFleetScenario is the E-fleet configuration: 4 sites of 2 compute
// nodes each, 32 tenants, 64 mixed workflows (compiled windpower kernels,
// hand-declared Monte-Carlo, pure-software), one bitstream cache slot per
// site (so the two FPGA bitstreams churn), deploys priced over the
// TCP/10G registry fabric, and an unplug of site 0's first accelerator
// at 0.5 s (cache churn: its resident bitstream goes stale).
func DefaultFleetScenario() FleetScenario {
	return FleetScenario{
		FleetConfig: FleetConfig{
			Sites: 4, NodesPerSite: 2, CacheSlots: 1,
			RegistryNet: "tcp10g",
			Adaptive:    true,
			SiteEvents:  [][]runtime.EnvEvent{{{Kind: runtime.EnvUnplug, Node: "node00", At: 0.5}}},
		},
		Tenants: 32, Workflows: 64,
		ArrivalGap: 0.05,
		SLO:        1.75,
	}
}

// DefaultGuaranteedScenario is the E-wcet configuration: the E-fleet mix
// driven toward best-effort saturation (tighter arrivals), with every 4th
// submission requesting the proven-bound admission class, site 0 losing
// an accelerator AND suffering a 3x CPU slowdown of its first node from
// 0.4 s. The slowdown respects the fleet's slowdown cap of 4, a constant
// that fleet.New enforces — NewFleetServer rejects a larger factor, which
// is exactly what keeps guaranteed bounds sound under the fault. The
// verifier gates BoundViolations at exactly zero on this scenario:
// admitted guarantees must hold through the faults at saturation,
// refusals must degrade cleanly to best-effort.
func DefaultGuaranteedScenario() FleetScenario {
	sc := DefaultFleetScenario()
	sc.ArrivalGap = 0.02 // push the best-effort tier toward saturation
	sc.SiteEvents[0] = append(sc.SiteEvents[0], runtime.EnvEvent{Kind: runtime.EnvSlowdown, Node: "node00", Factor: 3, At: 0.4})
	sc.GuaranteedEvery = 4
	sc.GuaranteedDeadline = 4
	sc.SLO = 0 // saturation mode: p95 is reported, not gated
	return sc
}

// Compile builds the scenario's compiled kernel (shared across runs: the
// saturation ladder re-serves the same compilation at every rate).
func (sc FleetScenario) Compile() (*variants.Compiled, error) {
	return variants.CompileExample("windpower", DefaultCompileOptions())
}

// DefaultSuiteScenario is the E-apps configuration: all three EVEREST
// use-case applications from the workload registry — weather ensembles,
// traffic map-matching, energy prediction — interleaved across 24
// tenants over 4 federated sites. Each site keeps two bitstreams
// resident, so the suite's four distinct per-stage bitstreams churn the
// caches, and site 0 loses an accelerator mid-run.
func DefaultSuiteScenario() FleetScenario {
	sc := DefaultFleetScenario()
	sc.CacheSlots = 2
	sc.Tenants, sc.Workflows = 24, 48
	sc.SLO = 2.5
	sc.Apps = apps.Names()
	return sc
}

// FleetResult is one serving run of the scenario.
type FleetResult struct {
	Stats      FleetServerStats
	Completed  int
	Rejected   int
	Makespan   float64 // latest site completion (modelled)
	Throughput float64 // completed workflows per modelled second
	P50        float64
	P95        float64
	Max        float64
	SLOMet     bool
	// Guaranteed-class accounting (GuaranteedEvery > 0): how many
	// guaranteed submissions were admitted on proof vs refused (and
	// degraded to best-effort), how many admitted completions missed
	// their proven bound — the verifier gates that at exactly zero — and
	// the worst observed latency/bound tightness ratio (<= 1 when the
	// bounds hold; near 1 means the proof is sharp, near 0 conservative).
	GuaranteedAdmitted  int
	GuaranteedRefused   int
	GuaranteedAdmitRate float64 // admitted / (admitted + refused)
	BoundViolations     int
	BoundTightness      float64
	// Tenants holds each tenant's completed-workflow latencies; Apps the
	// per-application ones when the run served the mixed suite (nil
	// otherwise).
	Tenants map[string]TenantLatency
	Apps    map[string]TenantLatency
}

// TenantLatency is one tenant's completed-workflow latency distribution.
type TenantLatency struct {
	Completed int
	P50       float64
	P95       float64
	Max       float64
}

// latenciesOf summarizes each bucket of a latency sample.
func latenciesOf(buckets map[string][]float64) map[string]TenantLatency {
	out := make(map[string]TenantLatency, len(buckets))
	for name, ls := range buckets {
		out[name] = TenantLatency{
			Completed: len(ls),
			P50:       Percentile(ls, 0.50),
			P95:       Percentile(ls, 0.95),
			Max:       Percentile(ls, 1.0),
		}
	}
	return out
}

// Run compiles what the scenario serves — the application suite when Apps
// is set, the default windpower mix otherwise — and serves it once.
func (sc FleetScenario) Run() (FleetResult, error) {
	if len(sc.Apps) > 0 {
		s, err := sc.BuildSuite()
		if err != nil {
			return FleetResult{}, err
		}
		return sc.RunSuite(s)
	}
	c, err := sc.Compile()
	if err != nil {
		return FleetResult{}, err
	}
	return sc.RunWith(c)
}

// BuildSuite compiles the scenario's application suite (shared across
// runs: the saturation ladder re-serves the same compilations at every
// rate).
func (sc FleetScenario) BuildSuite() (*apps.Suite, error) {
	return apps.BuildSuite(apps.DefaultOptions(), sc.Apps...)
}

// workflow returns the i-th submission of the mixed stream: compiled
// windpower workflows, hand-declared FPGA-leaning workflows on two
// distinct bitstreams (what churns a one-slot cache), and pure-software
// synthetic workflows.
func (sc FleetScenario) workflow(i int, c *variants.Compiled) *runtime.Workflow {
	switch i % 4 {
	case 0:
		w := CompiledWorkflow(i, c)
		if sc.Adaptive {
			w.SetVariants(c.Variants())
		}
		return w
	case 1:
		return AdaptiveWorkflow(i, ScenarioBitstream().ID)
	case 2:
		return SyntheticWorkflow(i)
	default:
		return AdaptiveWorkflow(i, c.Design.Bitstream.ID)
	}
}

// RunWith serves the scenario once around an already-compiled kernel
// (the default mixed stream of compiled windpower, hand-declared
// FPGA-leaning, and pure-software workflows).
func (sc FleetScenario) RunWith(c *variants.Compiled) (FleetResult, error) {
	if c == nil || c.Design == nil {
		return FleetResult{}, fmt.Errorf("sdk: fleet scenario needs a compiled kernel")
	}
	// The mixed stream cycles lcm(4,3)=12 distinct workflow descriptions
	// (class i%4 × weight i%3). A workflow is immutable once built and the
	// engine copies its specs on submission, so each template is built once
	// and resubmitted — the realistic client pattern, and it keeps template
	// construction out of the serving hot path the self-bench measures.
	templates := make([]*runtime.Workflow, 12)
	return sc.run(
		[]platform.Bitstream{c.Design.Bitstream, ScenarioBitstream()},
		func(i int) *runtime.Workflow {
			k := i % len(templates)
			if templates[k] == nil {
				templates[k] = sc.workflow(i, c)
			}
			return templates[k]
		},
		nil,
	)
}

// RunSuite serves the scenario once around a built application suite: the
// registered EVEREST use-case applications interleaved deterministically
// across tenants, with every suite bitstream published to the federation
// registry.
func (sc FleetScenario) RunSuite(s *apps.Suite) (FleetResult, error) {
	if s == nil || len(s.Apps) == 0 {
		return FleetResult{}, fmt.Errorf("sdk: fleet scenario needs a built application suite")
	}
	return sc.run(
		s.Bitstreams(),
		func(i int) *runtime.Workflow { _, w := s.Workflow(i); return w },
		func(i int) string { return s.AppOf(i).Name },
	)
}

// run serves one scenario pass: workflows come from wf (indexed by
// submission), bitstreams are published up front, and appOf — when set —
// buckets completed-workflow latencies per application for the suite
// report. Workflows are submitted in arrival order and awaited one at a
// time, so every modelled number is exactly deterministic across
// GOMAXPROCS.
func (sc FleetScenario) run(bitstreams []platform.Bitstream, wf func(i int) *runtime.Workflow, appOf func(i int) string) (FleetResult, error) {
	if sc.Tenants < 1 || sc.Workflows < 1 {
		return FleetResult{}, fmt.Errorf("sdk: bad fleet scenario %+v", sc)
	}
	if sc.GuaranteedEvery > 0 && sc.GuaranteedDeadline <= 0 {
		return FleetResult{}, fmt.Errorf("sdk: fleet scenario guaranteed deadline %g must be > 0", sc.GuaranteedDeadline)
	}
	srv, err := NewFleetServer(sc.FleetConfig)
	if err != nil {
		return FleetResult{}, err
	}
	for _, bs := range bitstreams {
		if err := srv.Publish(bs); err != nil {
			return FleetResult{}, err
		}
	}
	if err := srv.Start(); err != nil {
		return FleetResult{}, err
	}

	// Tenant names are computed once: the per-submission Sprintf showed up
	// in serving profiles.
	tenants := make([]string, sc.Tenants)
	for j := range tenants {
		tenants[j] = fmt.Sprintf("tenant%02d", j)
	}
	rejected := 0
	var g guarantees
	var latencies []float64
	byTenant := make(map[string][]float64)
	byApp := make(map[string][]float64)
	// serve submits workflow i for tenant j and awaits it: through the
	// proven-bound class when the scenario marks it guaranteed, plainly
	// otherwise. ok is false when admission rejected it; any error but
	// fleet.ErrSaturated aborts the run.
	serve := func(i, j int, arrival float64) (res fleet.Result, ok bool, err error) {
		w := wf(i)
		plain := func() (*fleet.Ticket, error) { return srv.SubmitAt(tenants[j], "", w, arrival) }
		var t *fleet.Ticket
		if sc.GuaranteedEvery > 0 && i%sc.GuaranteedEvery == 0 {
			t, err = submitGuaranteed(&g, func() (*fleet.Ticket, error) {
				return srv.SubmitGuaranteedAt(tenants[j], "", w, arrival, sc.GuaranteedDeadline)
			}, plain)
		} else {
			t, err = plain()
		}
		if errors.Is(err, fleet.ErrSaturated) {
			rejected++
			return res, false, nil
		}
		if err == nil {
			res, err = t.Wait()
		}
		if err != nil {
			return res, false, fmt.Errorf("sdk: fleet scenario workflow %d: %w", i, err)
		}
		latencies = append(latencies, res.Latency)
		byTenant[tenants[j]] = append(byTenant[tenants[j]], res.Latency)
		if appOf != nil {
			byApp[appOf(i)] = append(byApp[appOf(i)], res.Latency)
		}
		g.observe(res.Guaranteed, res.Latency, res.Bound)
		return res, true, nil
	}
	if sc.Closed {
		// Closed loop: each tenant is one client; its next workflow
		// arrives the moment its previous one completes. Submissions are
		// processed in global modelled-arrival order via a modelled-time
		// heap whose tie-break is the client index — identical to a linear
		// lowest-index min-scan, so the run is deterministic.
		next := runtime.NewTimeHeap(sc.Tenants)
		for j := 0; j < sc.Tenants; j++ {
			next.Push(runtime.TimeItem{Time: float64(j) * sc.ArrivalGap, Seq: j})
		}
		step := sc.ArrivalGap
		if step <= 0 {
			step = 0.01
		}
		for i := 0; i < sc.Workflows && err == nil; {
			turn := next.PopMin()
			var res fleet.Result
			var ok bool
			if res, ok, err = serve(i, turn.Seq, turn.Time); !ok {
				// Rejected: the client backs off and retries the same
				// workflow at a later arrival (i is not consumed). Arrivals
				// advance monotonically while the modelled backlog does
				// not, so the retry is eventually admitted.
				next.Push(runtime.TimeItem{Time: turn.Time + step, Seq: turn.Seq})
				continue
			}
			next.Push(runtime.TimeItem{Time: res.Completion, Seq: turn.Seq})
			i++
		}
	} else {
		for i := 0; i < sc.Workflows && err == nil; i++ {
			_, _, err = serve(i, i%sc.Tenants, float64(i)*sc.ArrivalGap)
		}
	}
	if err != nil {
		srv.Shutdown()
		return FleetResult{}, err
	}

	stats := srv.Shutdown()
	out := FleetResult{
		Stats:     stats,
		Completed: stats.Fleet.Completed,
		Rejected:  rejected,
		Makespan:  stats.Fleet.Makespan,
		P50:       Percentile(latencies, 0.50),
		P95:       Percentile(latencies, 0.95),
		Max:       Percentile(latencies, 1.0),
		Tenants:   latenciesOf(byTenant),

		GuaranteedAdmitted:  g.admitted,
		GuaranteedRefused:   g.refused,
		GuaranteedAdmitRate: g.rate(),
		BoundViolations:     stats.Fleet.BoundViolations(),
		BoundTightness:      g.tightness,
	}
	if appOf != nil {
		out.Apps = latenciesOf(byApp)
	}
	if out.Makespan > 0 {
		out.Throughput = float64(out.Completed) / out.Makespan
	}
	out.SLOMet = out.Completed == sc.Workflows && (sc.SLO <= 0 || out.P95 <= sc.SLO)
	return out, nil
}

// guarantees tallies a scenario's proven-bound admission class, fleet or
// region tier alike.
type guarantees struct {
	admitted, refused int
	// tightness is the worst latency/bound ratio over admitted
	// completions.
	tightness float64
}

// submitGuaranteed tries a guaranteed submission and counts the outcome.
// Only a refusal — fleet.ErrSaturated: nothing can prove the deadline —
// degrades the workflow to best-effort; any other error is returned.
func submitGuaranteed[T any](g *guarantees, guaranteed, degrade func() (T, error)) (T, error) {
	t, err := guaranteed()
	if err == nil {
		g.admitted++
		return t, nil
	}
	if !errors.Is(err, fleet.ErrSaturated) {
		return t, err
	}
	g.refused++
	return degrade()
}

// observe folds one completion into the tightness ratio.
func (g *guarantees) observe(guaranteed bool, latency, bound float64) {
	if guaranteed && bound > 0 {
		g.tightness = max(g.tightness, latency/bound)
	}
}

// rate is admitted / (admitted + refused); 0 when nothing was requested.
func (g guarantees) rate() float64 {
	if g.admitted+g.refused == 0 {
		return 0
	}
	return float64(g.admitted) / float64(g.admitted+g.refused)
}
