package sdk

import (
	"errors"
	"fmt"
	"sync"

	"everest/internal/apps"
	"everest/internal/fleet"
	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/variants"
)

// This file is the SDK face of the federation tier (internal/fleet): a
// FleetServer front that shards submissions across N engine sites behind
// one door — the fleet-scale analogue of Server — plus the E-fleet
// scenario serving mixed compiled and hand-declared workloads across
// federated sites under bitstream-cache churn and unplug faults.

// FleetConfig configures a FleetServer.
type FleetConfig struct {
	// Sites is the number of federated engine sites (>= 1).
	Sites int
	// NodesPerSite is the compute-node count of each site's cluster
	// (DefaultCluster shape: adds one cloudFPGA node; default 2).
	NodesPerSite int
	// CacheSlots bounds each site's resident bitstreams (default 1).
	CacheSlots int
	// PartialReconfig deploys kernels into per-region FPGA slots (region-
	// sized image transfers and reconfiguration) instead of whole devices;
	// kernels too large for a region fall back to whole-device programming.
	PartialReconfig bool
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

// FleetServer is the multi-site submission front: one Registry shared by
// all sites, a router placing each workflow, and per-site serial serving.
type FleetServer struct {
	Registry *platform.Registry

	fl *fleet.Fleet

	mu      sync.Mutex
	tickets []*fleet.Ticket
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
	var net, regNet *netsim.Stack
	if cfg.Net != "" {
		st, err := netsim.StackByName(cfg.Net)
		if err != nil {
			return nil, err
		}
		net = &st
	}
	if cfg.RegistryNet != "" {
		st, err := netsim.StackByName(cfg.RegistryNet)
		if err != nil {
			return nil, err
		}
		regNet = &st
	}
	reg := platform.NewRegistry()
	fl, err := fleet.New(reg, fleet.Config{
		Sites:             cfg.Sites,
		NewCluster:        func(int) *platform.Cluster { return DefaultCluster(cfg.NodesPerSite) },
		CacheSlots:        cfg.CacheSlots,
		PartialReconfig:   cfg.PartialReconfig,
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
	return &FleetServer{Registry: reg, fl: fl}, nil
}

// Fleet exposes the underlying federation tier.
func (fs *FleetServer) Fleet() *fleet.Fleet { return fs.fl }

// Publish stores a bitstream in the federation registry; sites deploy
// from it on demand (cache misses pay the transfer + reconfiguration).
func (fs *FleetServer) Publish(bs platform.Bitstream) error { return fs.Registry.Put(bs) }

// Start brings every site engine up.
func (fs *FleetServer) Start() error { return fs.fl.Start() }

// SubmitAt routes one workflow arriving at the given modelled time and
// serves it to completion before returning, so the ticket is already
// resolved; admission rejections return fleet.ErrSaturated.
func (fs *FleetServer) SubmitAt(tenant, name string, w *runtime.Workflow, arrival float64) (*fleet.Ticket, error) {
	return fs.submit(fleet.Request{Tenant: tenant, Name: name, Workflow: w, Arrival: arrival})
}

// SubmitGuaranteedAt routes one workflow through the proven-bound
// admission class: it is accepted only on a site whose modelled worst case
// fits within deadline seconds of the arrival, and refused with
// fleet.ErrSaturated otherwise (nothing is served on refusal — callers
// typically degrade to SubmitAt).
func (fs *FleetServer) SubmitGuaranteedAt(tenant, name string, w *runtime.Workflow, arrival, deadline float64) (*fleet.Ticket, error) {
	return fs.submit(fleet.Request{Tenant: tenant, Name: name, Workflow: w, Arrival: arrival,
		Guaranteed: true, Deadline: deadline})
}

func (fs *FleetServer) submit(req fleet.Request) (*fleet.Ticket, error) {
	t, err := fs.fl.Submit(req)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fs.tickets = append(fs.tickets, t)
	fs.mu.Unlock()
	return t, nil
}

// TenantLatency is one tenant's completed-workflow latency distribution.
type TenantLatency struct {
	Completed int
	P50       float64
	P95       float64
	Max       float64
}

// FleetServerStats is the final accounting of a fleet serving run.
type FleetServerStats struct {
	Fleet     fleet.Stats
	Tenants   map[string]TenantLatency
	Latencies []float64 // all completed workflow latencies, submission order
}

// Shutdown stops every site engine and returns the final stats including
// per-tenant latency percentiles.
func (fs *FleetServer) Shutdown() FleetServerStats {
	flStats := fs.fl.Shutdown()
	fs.mu.Lock()
	tickets := fs.tickets
	fs.mu.Unlock()
	out := FleetServerStats{Fleet: flStats, Tenants: make(map[string]TenantLatency)}
	byTenant := make(map[string][]float64)
	for _, t := range tickets {
		res, err := t.Wait() // resolved: Submit served it before returning
		if err != nil {
			continue
		}
		out.Latencies = append(out.Latencies, res.Latency)
		byTenant[t.Tenant] = append(byTenant[t.Tenant], res.Latency)
	}
	for tenant, ls := range byTenant {
		out.Tenants[tenant] = TenantLatency{
			Completed: len(ls),
			P50:       Percentile(ls, 0.50),
			P95:       Percentile(ls, 0.95),
			Max:       Percentile(ls, 1.0),
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// E-fleet scenario

// FleetScenario bundles one run of the fleet-serving experiment: mixed
// compiled and hand-declared workloads from many tenants arriving over
// modelled time, served by a federation of engine sites with bounded
// bitstream caches, with an accelerator unplug hitting the first site
// mid-run. Workflows are submitted in arrival order and awaited one at a
// time, so every modelled number is exactly deterministic across
// GOMAXPROCS while site timelines still overlap in modelled time.
type FleetScenario struct {
	Sites        int
	NodesPerSite int
	CacheSlots   int
	// PartialReconfig deploys kernels into per-region FPGA slots
	// (FleetConfig semantics).
	PartialReconfig bool
	Tenants         int
	Workflows       int
	// ArrivalGap is the open-mode interarrival (modelled seconds); in
	// closed mode it staggers the clients' initial arrivals instead.
	ArrivalGap float64
	// Closed selects the closed-loop arrival mode: Tenants clients, each
	// submitting its next workflow the moment its previous one completes.
	Closed bool
	// UnplugAt > 0 detaches site 0's first accelerator at that modelled
	// time (cache churn: its resident bitstream goes stale).
	UnplugAt float64
	// SlowdownAt > 0 scripts a CPU slowdown fault of SlowdownFactor on
	// site 0's first node at that modelled time. The factor must respect
	// the fleet's SlowdownCap contract (default cap 4) or NewFleetServer
	// fails — that validation is exactly what keeps guaranteed bounds
	// sound under the fault.
	SlowdownAt     float64
	SlowdownFactor float64
	// GuaranteedEvery > 0 submits every GuaranteedEvery-th workflow (index
	// 0, GuaranteedEvery, ...) through the proven-bound admission class
	// with GuaranteedDeadline as its relative latency bound. A refusal
	// (fleet.ErrSaturated: no site can prove the deadline) is counted and
	// the workflow degrades to best-effort, so the served stream is
	// identical either way.
	GuaranteedEvery    int
	GuaranteedDeadline float64
	// Net / RegistryNet name the transfer stacks (FleetConfig semantics).
	Net         string
	RegistryNet string
	// Policy selects each site engine's placement strategy (the zero
	// value is PolicyHEFT).
	Policy   runtime.Policy
	Adaptive bool
	// MaxQueueSeconds forwards the admission bound (0 = never reject).
	MaxQueueSeconds float64
	// SLO is the p95 latency target the saturation metric gates on.
	SLO float64
	// Apps selects the mixed application-suite mode: the named workload-
	// registry applications (internal/apps; empty slice entries invalid)
	// are interleaved deterministically across tenants instead of the
	// default windpower/hand-declared mix. Serve it with RunSuite /
	// SaturateSuite around a suite from BuildSuite.
	Apps []string
	// Trace receives fleet events during Run/RunWith when set (routing,
	// cache hits/misses, deploys, evictions).
	Trace func(fleet.Event)
	// EngineTrace receives every site engine's runtime events tagged with
	// the site name, merged in order with the fleet events. Because the
	// scenario submits and awaits one workflow at a time, the merged stream
	// is deterministic — the determinism regression test hashes it.
	EngineTrace func(site string, ev runtime.Event)
}

// DefaultFleetScenario is the E-fleet configuration: 4 sites of 2 compute
// nodes each, 32 tenants, 64 mixed workflows (compiled windpower kernels,
// hand-declared Monte-Carlo, pure-software), one bitstream cache slot per
// site (so the two FPGA bitstreams churn), deploys priced over the
// TCP/10G registry fabric, and an unplug of site 0's accelerator mid-run.
func DefaultFleetScenario() FleetScenario {
	return FleetScenario{
		Sites: 4, NodesPerSite: 2, CacheSlots: 1,
		Tenants: 32, Workflows: 64,
		ArrivalGap: 0.05, UnplugAt: 0.5,
		RegistryNet: "tcp10g",
		Adaptive:    true,
		SLO:         1.75,
	}
}

// DefaultGuaranteedScenario is the E-wcet configuration: the E-fleet mix
// driven toward best-effort saturation (tighter arrivals), with every 4th
// submission requesting the proven-bound admission class, site 0 losing
// an accelerator AND suffering a 3x CPU slowdown mid-run (both within the
// SlowdownCap contract). The verifier gates BoundViolations at exactly
// zero on this scenario: admitted guarantees must hold through the faults
// at saturation, refusals must degrade cleanly to best-effort.
func DefaultGuaranteedScenario() FleetScenario {
	sc := DefaultFleetScenario()
	sc.ArrivalGap = 0.02 // push the best-effort tier toward saturation
	sc.SlowdownAt = 0.4
	sc.SlowdownFactor = 3
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
	return FleetScenario{
		Sites: 4, NodesPerSite: 2, CacheSlots: 2,
		Tenants: 24, Workflows: 48,
		ArrivalGap: 0.05, UnplugAt: 0.5,
		RegistryNet: "tcp10g",
		Adaptive:    true,
		SLO:         2.5,
		Apps:        apps.Names(),
	}
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
	// Apps holds the per-application latency distributions when the run
	// served the mixed suite (nil otherwise).
	Apps map[string]TenantLatency
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
	if sc.Sites < 1 || sc.Tenants < 1 || sc.Workflows < 1 {
		return FleetResult{}, fmt.Errorf("sdk: bad fleet scenario %+v", sc)
	}
	var site0 []runtime.EnvEvent
	if sc.UnplugAt > 0 {
		site0 = append(site0, runtime.EnvEvent{Kind: runtime.EnvUnplug, Node: "node00", Device: 0, At: sc.UnplugAt})
	}
	if sc.SlowdownAt > 0 {
		factor := sc.SlowdownFactor
		if factor <= 0 {
			factor = 2
		}
		site0 = append(site0, runtime.EnvEvent{Kind: runtime.EnvSlowdown, Node: "node00", Factor: factor, At: sc.SlowdownAt})
	}
	var events [][]runtime.EnvEvent
	if len(site0) > 0 {
		events = [][]runtime.EnvEvent{site0}
	}
	srv, err := NewFleetServer(FleetConfig{
		Sites: sc.Sites, NodesPerSite: sc.NodesPerSite, CacheSlots: sc.CacheSlots,
		PartialReconfig: sc.PartialReconfig,
		Policy:          sc.Policy, Adaptive: sc.Adaptive,
		MaxQueueSeconds: sc.MaxQueueSeconds,
		Net:             sc.Net, RegistryNet: sc.RegistryNet,
		SiteEvents: events, Trace: sc.Trace, EngineTrace: sc.EngineTrace,
	})
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

	rejected := 0
	gAdmitted, gRefused := 0, 0
	tightness := 0.0
	byApp := make(map[string][]float64)
	record := func(i int, res fleet.Result) {
		if appOf != nil {
			byApp[appOf(i)] = append(byApp[appOf(i)], res.Latency)
		}
		if res.Guaranteed && res.Bound > 0 {
			if r := res.Latency / res.Bound; r > tightness {
				tightness = r
			}
		}
	}
	// submit routes workflow i: through the proven-bound class when the
	// scenario marks it guaranteed (degrading to best-effort when no site
	// can prove the deadline), plainly otherwise.
	submit := func(i int, tenant string, w *runtime.Workflow, arrival float64) (*fleet.Ticket, error) {
		if sc.GuaranteedEvery > 0 && i%sc.GuaranteedEvery == 0 {
			t, err := srv.SubmitGuaranteedAt(tenant, "", w, arrival, sc.GuaranteedDeadline)
			if err == nil {
				gAdmitted++
				return t, nil
			}
			if !errors.Is(err, fleet.ErrSaturated) {
				return nil, err
			}
			gRefused++ // no provable site: degrade to best-effort
		}
		return srv.SubmitAt(tenant, "", w, arrival)
	}
	// Tenant names are computed once: the per-submission Sprintf showed up
	// in serving profiles.
	tenants := make([]string, sc.Tenants)
	for j := range tenants {
		tenants[j] = fmt.Sprintf("tenant%02d", j)
	}
	tenantName := func(i int) string { return tenants[i%sc.Tenants] }
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
		for i := 0; i < sc.Workflows; i++ {
			turn := next.PopMin()
			client, arrival := turn.Seq, turn.Time
			t, err := submit(i, tenants[client], wf(i), arrival)
			if err != nil {
				// Rejected: the client backs off and retries the same
				// workflow at a later arrival (i is not consumed). Arrivals
				// advance monotonically while the modelled backlog does
				// not, so the retry is eventually admitted.
				rejected++
				step := sc.ArrivalGap
				if step <= 0 {
					step = 0.01
				}
				next.Push(runtime.TimeItem{Time: arrival + step, Seq: client})
				i--
				continue
			}
			res, err := t.Wait()
			if err != nil {
				srv.Shutdown()
				return FleetResult{}, fmt.Errorf("sdk: fleet scenario workflow %d: %w", i, err)
			}
			record(i, res)
			next.Push(runtime.TimeItem{Time: res.Completion, Seq: client})
		}
	} else {
		for i := 0; i < sc.Workflows; i++ {
			t, err := submit(i, tenantName(i), wf(i), float64(i)*sc.ArrivalGap)
			if err != nil {
				rejected++
				continue
			}
			res, err := t.Wait()
			if err != nil {
				srv.Shutdown()
				return FleetResult{}, fmt.Errorf("sdk: fleet scenario workflow %d: %w", i, err)
			}
			record(i, res)
		}
	}

	stats := srv.Shutdown()
	out := FleetResult{
		Stats:     stats,
		Completed: stats.Fleet.Completed,
		Rejected:  rejected,
		Makespan:  stats.Fleet.Makespan,
		P50:       Percentile(stats.Latencies, 0.50),
		P95:       Percentile(stats.Latencies, 0.95),
		Max:       Percentile(stats.Latencies, 1.0),

		GuaranteedAdmitted: gAdmitted,
		GuaranteedRefused:  gRefused,
		BoundViolations:    stats.Fleet.BoundViolations(),
		BoundTightness:     tightness,
	}
	if gAdmitted+gRefused > 0 {
		out.GuaranteedAdmitRate = float64(gAdmitted) / float64(gAdmitted+gRefused)
	}
	if appOf != nil {
		out.Apps = make(map[string]TenantLatency, len(byApp))
		for name, ls := range byApp {
			out.Apps[name] = TenantLatency{
				Completed: len(ls),
				P50:       Percentile(ls, 0.50),
				P95:       Percentile(ls, 0.95),
				Max:       Percentile(ls, 1.0),
			}
		}
	}
	if out.Makespan > 0 {
		out.Throughput = float64(out.Completed) / out.Makespan
	}
	out.SLOMet = out.Completed == sc.Workflows && (sc.SLO <= 0 || out.P95 <= sc.SLO)
	return out, nil
}
