package sdk

import (
	"fmt"

	"everest/internal/apps"
	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/region"
	"everest/internal/runtime"
)

// This file is the SDK face of the hierarchical federation tier
// (internal/region): a RegionServer front over a fleet-of-fleets —
// regions of federated sites joined by a slow WAN, with SLO classes,
// batch preemption and predictive bitstream prefetch — plus the E-region
// scenario: a traffic wave traveling around the regions with background
// batch churn, the workload on which prefetch-on must beat prefetch-off
// cold-start latency.

// RegionConfig configures a RegionServer. Every site serves from Start.
type RegionConfig struct {
	// Regions is the number of federated regions (>= 1).
	Regions int
	// SitesPerRegion is each region's fleet size (default 2).
	SitesPerRegion int
	// NodesPerSite is each site cluster's compute-node count (default 2).
	NodesPerSite int
	// CacheSlots bounds each site's resident bitstreams (fleet semantics).
	CacheSlots int
	// StoreSlots bounds each region's artifact store (region semantics;
	// 0 = unbounded).
	StoreSlots int
	// PartialReconfig and Adaptive forward to every region's fleet.
	PartialReconfig bool
	Adaptive        bool
	// RegistryNet names the registry→site deploy fabric inside each
	// region ("" = eth100g).
	RegistryNet string
	// WAN names the inter-region fabric ("" = wan10g; "wan1g" for the
	// geo-distributed flavour).
	WAN string
	// Prefetch turns on forecast-driven bitstream staging.
	Prefetch bool
	// WindowSeconds / WarmThreshold / ForecastLag tune the forecaster
	// (region.Config semantics; zero values take the defaults, and
	// non-finite values are refused).
	WindowSeconds float64
	WarmThreshold float64
	ForecastLag   int
	// Partitions scripts WAN reachability faults.
	Partitions []region.Partition
	// Trace receives region events; FleetTrace and EngineTrace receive the
	// nested tiers' events tagged with their region (and site). All three
	// fire inline, on the goroutine of the call that raised them, and
	// region events under the federation lock, so concurrent submitters
	// never interleave them — the determinism harness hashes the merged
	// stream.
	Trace       func(region.Event)
	FleetTrace  func(regionName string, ev fleet.Event)
	EngineTrace func(regionName, site string, ev runtime.Event)
}

// RegionServer is the hierarchical submission front: a federation-wide
// artifact catalog, regional fleets behind a WAN-aware router, and SLO
// classes on every submission. The federation owns the catalog; Publish
// writes it under the federation lock.
type RegionServer struct {
	fed *region.Federation
}

// NewRegionServer builds the federation: cfg.Regions fleets of
// DefaultCluster sites, each on its own registry, joined by the named
// WAN, deploying artifacts from one shared catalog.
func NewRegionServer(cfg RegionConfig) (*RegionServer, error) {
	if cfg.Regions < 1 {
		return nil, fmt.Errorf("sdk: region server needs >= 1 region, got %d", cfg.Regions)
	}
	if cfg.SitesPerRegion < 1 {
		cfg.SitesPerRegion = 2
	}
	if cfg.NodesPerSite < 1 {
		cfg.NodesPerSite = 2
	}
	regNet, err := stackByName(cfg.RegistryNet)
	if err != nil {
		return nil, err
	}
	wan, err := stackByName(cfg.WAN)
	if err != nil {
		return nil, err
	}
	fed, err := region.New(platform.NewRegistry(), region.Config{
		Regions:         cfg.Regions,
		SitesPerRegion:  cfg.SitesPerRegion,
		NewCluster:      func(_, _ int) *platform.Cluster { return DefaultCluster(cfg.NodesPerSite) },
		CacheSlots:      cfg.CacheSlots,
		PartialReconfig: cfg.PartialReconfig,
		Adaptive:        cfg.Adaptive,
		RegistryNet:     regNet,
		WAN:             wan,
		StoreSlots:      cfg.StoreSlots,
		Prefetch:        cfg.Prefetch,
		WindowSeconds:   cfg.WindowSeconds,
		WarmThreshold:   cfg.WarmThreshold,
		ForecastLag:     cfg.ForecastLag,
		Partitions:      cfg.Partitions,
		Trace:           cfg.Trace,
		FleetTrace:      cfg.FleetTrace,
		EngineTrace:     cfg.EngineTrace,
	})
	if err != nil {
		return nil, err
	}
	return &RegionServer{fed: fed}, nil
}

// Publish stores a bitstream in the federation-wide catalog; regions
// WAN-fetch it into their bounded stores on demand or ahead of demand.
// After Shutdown it returns runtime.ErrShutDown.
func (rs *RegionServer) Publish(bs platform.Bitstream) error { return rs.fed.Publish(bs) }

// Start brings every regional fleet up. After Shutdown, or a Start that
// failed, it returns runtime.ErrShutDown.
func (rs *RegionServer) Start() error { return rs.fed.Start() }

// SubmitAt routes one workflow through the federation (region.Request
// semantics: arrivals must be non-decreasing; interactive and guaranteed
// handles resolve inside the call, batch handles may stay held until
// Drain). Rejections return the routing error with nothing enqueued;
// after Shutdown it returns runtime.ErrShutDown.
func (rs *RegionServer) SubmitAt(req region.Request) (*region.Handle, error) {
	return rs.fed.SubmitAt(req)
}

// Drain advances modelled time and serves every held batch workflow.
func (rs *RegionServer) Drain(at float64) { rs.fed.Drain(at) }

// RegionServerStats is the final accounting of a region serving run.
type RegionServerStats struct {
	Federation region.Stats
}

// Shutdown drains held batch work, stops every regional fleet, and
// returns the final stats; every later mutating call returns
// runtime.ErrShutDown.
func (rs *RegionServer) Shutdown() RegionServerStats {
	return RegionServerStats{Federation: rs.fed.Shutdown()}
}

// ---------------------------------------------------------------------------
// E-region scenario

// RegionScenario bundles one run of the hierarchical serving experiment:
// a traffic wave traveling around the regions — blocks of application-
// suite arrivals homed at one region, then the next — with a background
// batch app churning the bounded stores and caches, every sixth wave
// arrival riding the guaranteed class, and (optionally) each region
// forecasting the wave's return to warm its caches before it arrives.
// Submissions are driven in arrival order and awaited in class order
// (priority inline, batch after Drain), so every modelled number is
// exactly deterministic across GOMAXPROCS.
type RegionScenario struct {
	// RegionConfig is the federation the wave is served on. The default
	// StoreSlots is smaller than the scenario's working set (suite
	// bitstreams + the batch app's), so staging order decides who
	// survives the LRU; PartialReconfig gives each site enough resident
	// capacity that cache warms stick, so the default contrast is purely
	// the WAN store tier; ForecastLag must cover the wave period in
	// windows for the KRR to see returns coming.
	RegionConfig
	Workflows int
	// ArrivalGap is the interarrival inside the stream (modelled seconds).
	ArrivalGap float64
	// BlockSize is how many consecutive submissions the wave spends homed
	// at one region before moving to the next (the wave period is
	// Regions * BlockSize * ArrivalGap).
	BlockSize int
	// BatchEvery > 0 makes every BatchEvery-th submission a background
	// batch workflow (its own bitstream, home rotating independently of
	// the wave) — deferrable cache churn.
	BatchEvery int
	// GuaranteedEvery > 0 submits every GuaranteedEvery-th wave arrival
	// through the proven-bound class with GuaranteedDeadline; refusals
	// degrade to interactive and are counted.
	GuaranteedEvery    int
	GuaranteedDeadline float64
	// InputBytes is each workflow's WAN handoff payload.
	InputBytes int64
	// Apps names the workload-registry applications the wave serves.
	Apps []string
}

// DefaultRegionScenario is the E-region configuration: 3 regions of 3
// sites joined by the geo WAN (wan1g), a wave of the three EVEREST
// suite apps spending 4 submissions per region (period 6s = 6 forecast
// windows, within the KRR's lag), every 5th submission a batch
// Monte-Carlo whose own bitstream churns the 4-slot region stores
// against a 5-artifact working set, every 7th wave arrival guaranteed
// (7 is coprime with the 3-app cycle, so the proven-bound class rotates
// across the suite), and prefetch ON. The geometry pins the on/off contrast to exactly
// the WAN store tier: the 24 MiB input payload prices an inter-region
// handoff above an image refetch (so the wave serves at home instead of
// trailing the still-warm previous region), three sites absorb a block
// without queue contention, and partial reconfiguration makes deploys
// quarter-image. Without prefetch, a wave returning after batch churn
// pays a wan1g refetch on the serving path (~0.24-0.47s of overhead);
// with prefetch, the forecaster restages the store at window rolls and
// the overhead collapses to at most one PR-slot deploy (~0.035s).
// Serve the same scenario with Prefetch=false for the cold-start
// contrast the bench gates.
func DefaultRegionScenario() RegionScenario {
	return RegionScenario{
		RegionConfig: RegionConfig{
			Regions: 3, SitesPerRegion: 3, NodesPerSite: 2,
			CacheSlots: 4, StoreSlots: 4, PartialReconfig: true,
			Prefetch:      true,
			WindowSeconds: 1, WarmThreshold: 0.25, ForecastLag: 16,
			WAN: "wan1g", RegistryNet: "tcp10g",
			Adaptive: true,
		},
		Workflows: 200, ArrivalGap: 0.5, BlockSize: 4,
		BatchEvery: 5, GuaranteedEvery: 7, GuaranteedDeadline: 12,
		InputBytes: 24 << 20,
		Apps:       apps.Names(),
	}
}

// RegionResult is one serving run of the scenario.
type RegionResult struct {
	Stats     region.Stats
	Completed int
	Rejected  int
	Makespan  float64
	// Throughput is completed workflows per modelled second.
	Throughput float64
	// P50/P95/Max summarize the non-batch (interactive + guaranteed)
	// latency distribution over the whole stream; batch latencies are
	// hold-dominated by design and reported separately.
	P50, P95, Max float64
	BatchP95      float64
	// TailP99 and TailColdStartP99 are the steady-state serving metrics,
	// computed over non-batch submissions in the tail half of the stream —
	// past the forecaster's warmup, where prediction (not first-contact
	// cold serves) decides who is warm. TailP99 is the p99 latency;
	// TailColdStartP99 is the p99 of the serving overhead (latency minus
	// engine service time: WAN handoff + artifact fetch + queue wait +
	// deployment) — the cold-start number prefetch attacks, insensitive to
	// the apps' intrinsic compute times. TailCold counts the cold serves
	// in the same slice.
	TailP99          float64
	TailColdStartP99 float64
	TailCold         int
	// Guaranteed accounting (FleetResult semantics).
	GuaranteedAdmitted  int
	GuaranteedRefused   int
	GuaranteedAdmitRate float64
	BoundViolations     int
	BoundTightness      float64
	// Prefetch accounting.
	ColdServes      int
	PrefetchFetches int
	Warms           int
	Handoffs        int
	Preemptions     int
}

// BuildSuite compiles the scenario's application suite (shared across
// runs: PrefetchWin re-serves the same compilations).
func (sc RegionScenario) BuildSuite() (*apps.Suite, error) {
	return apps.BuildSuite(apps.DefaultOptions(), sc.Apps...)
}

// Run builds the suite and serves the scenario once.
func (sc RegionScenario) Run() (RegionResult, error) {
	s, err := sc.BuildSuite()
	if err != nil {
		return RegionResult{}, err
	}
	return sc.RunSuite(s)
}

// batchBitstream is the background batch app's own artifact: one more
// distinct bitstream than the stores can hold.
func batchBitstream() platform.Bitstream {
	bs := ScenarioBitstream()
	bs.ID = "region-batch-mc"
	bs.Kernel = "mc-batch"
	return bs
}

// RunSuite serves the scenario once around a built application suite.
func (sc RegionScenario) RunSuite(s *apps.Suite) (RegionResult, error) {
	return sc.runSuite(s, func(*runtime.Workflow, region.Result) {})
}

// runSuite is RunSuite, handing every served workflow and its result to
// observe.
func (sc RegionScenario) runSuite(s *apps.Suite, observe func(*runtime.Workflow, region.Result)) (RegionResult, error) {
	if s == nil || len(s.Apps) == 0 {
		return RegionResult{}, fmt.Errorf("sdk: region scenario needs a built application suite")
	}
	if sc.Regions < 1 || sc.Workflows < 1 || sc.ArrivalGap <= 0 || sc.BlockSize < 1 {
		return RegionResult{}, fmt.Errorf("sdk: bad region scenario %+v", sc)
	}
	srv, err := NewRegionServer(sc.RegionConfig)
	if err != nil {
		return RegionResult{}, err
	}
	for _, bs := range s.Bitstreams() {
		if err := srv.Publish(bs); err != nil {
			return RegionResult{}, err
		}
	}
	mc := batchBitstream()
	if err := srv.Publish(mc); err != nil {
		return RegionResult{}, err
	}
	if err := srv.Start(); err != nil {
		return RegionResult{}, err
	}

	type pending struct {
		idx    int
		wf     *runtime.Workflow
		handle *region.Handle
	}
	var batches []pending
	type record struct {
		latency  float64
		overhead float64 // latency minus engine service: the serving stalls
		cold     bool
		batch    bool
		ok       bool
	}
	records := make([]record, sc.Workflows)
	var g guarantees
	waveIdx := 0
	var lastArrival float64
	for i := 0; i < sc.Workflows; i++ {
		arrival := float64(i) * sc.ArrivalGap
		lastArrival = arrival
		if sc.BatchEvery > 0 && i%sc.BatchEvery == sc.BatchEvery-1 {
			// Background batch: its own app and bitstream, home rotating
			// independently of the wave, deferrable.
			w := AdaptiveWorkflow(i, mc.ID)
			h, err := srv.SubmitAt(region.Request{
				Tenant: "batch", App: "mc",
				Workflow:   w,
				Home:       i % sc.Regions,
				Arrival:    arrival,
				Class:      region.Batch,
				InputBytes: sc.InputBytes,
			})
			if err != nil {
				return RegionResult{}, fmt.Errorf("sdk: region scenario batch %d: %w", i, err)
			}
			batches = append(batches, pending{idx: i, wf: w, handle: h})
			continue
		}
		app, w := s.Workflow(waveIdx)
		req := region.Request{
			Tenant: fmt.Sprintf("tenant%02d", waveIdx%8), App: app.Name,
			Workflow:   w,
			Home:       (i / sc.BlockSize) % sc.Regions,
			Arrival:    arrival,
			Class:      region.Interactive,
			InputBytes: sc.InputBytes,
		}
		var h *region.Handle
		var err error
		if sc.GuaranteedEvery > 0 && waveIdx%sc.GuaranteedEvery == 0 {
			// A region that cannot prove the deadline degrades the
			// arrival to interactive.
			guaranteed := req
			guaranteed.Class = region.Guaranteed
			guaranteed.Deadline = sc.GuaranteedDeadline
			h, err = submitGuaranteed(&g,
				func() (*region.Handle, error) { return srv.SubmitAt(guaranteed) },
				func() (*region.Handle, error) { return srv.SubmitAt(req) })
		} else {
			h, err = srv.SubmitAt(req)
		}
		waveIdx++
		if err != nil {
			return RegionResult{}, fmt.Errorf("sdk: region scenario workflow %d: %w", i, err)
		}
		res, err := h.Wait()
		if err != nil {
			srv.Shutdown()
			return RegionResult{}, fmt.Errorf("sdk: region scenario workflow %d: %w", i, err)
		}
		records[i] = record{latency: res.Latency, overhead: res.Latency - res.Service, cold: res.Cold, ok: true}
		g.observe(res.Guaranteed, res.Latency, res.Bound)
		observe(w, res)
	}
	srv.Drain(lastArrival)
	for _, p := range batches {
		res, err := p.handle.Wait()
		if err != nil {
			srv.Shutdown()
			return RegionResult{}, fmt.Errorf("sdk: region scenario batch %d: %w", p.idx, err)
		}
		records[p.idx] = record{latency: res.Latency, overhead: res.Latency - res.Service, cold: res.Cold, batch: true, ok: true}
		observe(p.wf, res)
	}

	final := srv.Shutdown()
	stats := final.Federation
	var priority, batch, tail, tailOverhead []float64
	tailCold := 0
	for i, r := range records {
		if !r.ok {
			continue
		}
		if r.batch {
			batch = append(batch, r.latency)
			continue
		}
		priority = append(priority, r.latency)
		if i >= sc.Workflows/2 {
			tail = append(tail, r.latency)
			tailOverhead = append(tailOverhead, r.overhead)
			if r.cold {
				tailCold++
			}
		}
	}
	out := RegionResult{
		Stats:            stats,
		Completed:        stats.Completed,
		Rejected:         stats.Rejected,
		Makespan:         stats.Makespan,
		P50:              Percentile(priority, 0.50),
		P95:              Percentile(priority, 0.95),
		Max:              Percentile(priority, 1.0),
		BatchP95:         Percentile(batch, 0.95),
		TailP99:          Percentile(tail, 0.99),
		TailColdStartP99: Percentile(tailOverhead, 0.99),
		TailCold:         tailCold,

		GuaranteedAdmitted:  g.admitted,
		GuaranteedRefused:   g.refused,
		GuaranteedAdmitRate: g.rate(),
		BoundViolations:     stats.BoundViolations,
		BoundTightness:      g.tightness,

		ColdServes:      stats.ColdServes,
		PrefetchFetches: stats.PrefetchFetches,
		Warms:           stats.Warms,
		Handoffs:        stats.Handoffs,
		Preemptions:     stats.Preemptions,
	}
	if out.Makespan > 0 {
		out.Throughput = float64(out.Completed) / out.Makespan
	}
	return out, nil
}

// PrefetchWin serves the scenario over one built suite with
// forecast-driven bitstream prefetch on and then off and returns both
// runs; the win is the off arm's tail cold-start overhead over the on
// arm's.
func (sc RegionScenario) PrefetchWin(s *apps.Suite) (on, off RegionResult, err error) {
	sc.Prefetch = true
	if on, err = sc.RunSuite(s); err == nil {
		sc.Prefetch = false
		off, err = sc.RunSuite(s)
	}
	return on, off, err
}
