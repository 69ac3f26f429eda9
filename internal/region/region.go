// Package region is the fleet-of-fleets tier of the EVEREST runtime: a
// hierarchical federation where each region is a complete fleet (its own
// sites, its own bitstream registry, its own Eth100G deployment fabric)
// and regions are joined by a much slower WAN. The paper frames EVEREST
// as orchestrating big-data pipelines across heterogeneous
// *infrastructures*, not just nodes (§II, §VI); this package adds that
// top level:
//
//   - a top-level router that prices serving a workflow away from its
//     home region (WAN payload transfer + missing-artifact fetches +
//     remote queue wait) against waiting out the home queue;
//   - two-level bitstream distribution: a federation-wide catalog holds
//     every artifact, each region keeps a bounded store fetched over the
//     WAN on demand, and each site caches deployments as before — so a
//     cold serve can stack WAN fetch + registry transfer + reconfig;
//   - tenant SLO classes (guaranteed > interactive > batch): guaranteed
//     work rides the fleet's proven-bound admission, interactive work is
//     served on arrival, and batch work is parked in a modelled-time
//     hold queue that priority arrivals preempt (push back, with a
//     restart penalty) — so batch absorbs slack without ever standing in
//     front of the classes above it;
//   - predictive bitstream prefetch (see Forecaster): at every window
//     roll a region forecasts next-window demand per app and stages the
//     app's bitstreams — WAN fetch into the region store, cache warm
//     into the least-busy site — before the traffic arrives.
//
// Time discipline matches the fleet tier: everything is modelled
// seconds, arrivals must be submitted in non-decreasing order, and the
// single-driver submit protocol makes every number — including the trace
// stream — deterministic across GOMAXPROCS.
package region

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"everest/internal/dataset"
	"everest/internal/fleet"
	"everest/internal/hls"
	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// Class is a tenant SLO class.
type Class int

// SLO classes, weakest first.
const (
	// Batch is deferrable best-effort work: it may be held and preempted.
	Batch Class = iota
	// Interactive is served on arrival, best effort.
	Interactive
	// Guaranteed rides the fleet's proven-bound admission class.
	Guaranteed
)

func (c Class) String() string {
	if c < 0 || c > Guaranteed {
		return "unknown"
	}
	return [...]string{"batch", "interactive", "guaranteed"}[c]
}

// EventKind classifies region trace events.
type EventKind int

// Region trace event kinds.
const (
	// EventRoute fires when the top-level router picks a serving region.
	EventRoute EventKind = iota
	// EventHandoff fires when a workflow is served away from its home.
	EventHandoff
	// EventFetch fires when a missing artifact is WAN-fetched on the
	// serving path (the workflow pays the stall).
	EventFetch
	// EventPrefetch fires when the forecaster WAN-fetches an artifact
	// ahead of demand (off the critical path).
	EventPrefetch
	// EventHold fires when batch work is parked in the hold queue.
	EventHold
	// EventRelease fires when held batch work is finally served.
	EventRelease
	// EventPreempt fires when a priority arrival pushes held batch back.
	EventPreempt
	// EventEvictStore fires when a bounded region store drops an artifact.
	EventEvictStore
	// EventReject fires when no region can serve (or prove) a request.
	EventReject
	// EventDone fires when a workflow's region-level completion is known.
	EventDone
)

// eventNames holds each EventKind's name, indexed by kind.
var eventNames = [...]string{
	"route", "handoff", "fetch", "prefetch", "hold", "release", "preempt",
	"evict-store", "reject", "done",
}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return "unknown"
	}
	return eventNames[k]
}

// Event is one region trace record, serialized by the federation.
type Event struct {
	Kind      EventKind
	Region    string
	Tenant    string
	Workflow  string
	App       string
	Bitstream string
	Time      float64 // modelled seconds
	Detail    string
}

// Partition makes one region unreachable over the WAN during [From,
// Until): no handoffs in or out, no artifact fetches. The region keeps
// serving its own traffic from whatever its store already holds.
type Partition struct {
	Region      int
	From, Until float64
}

// The federation's fixed prices.
const (
	// handoffPenalty is the flat routing bias added to non-home regions on
	// top of the modelled WAN transfer: the price of leaving the tenant's
	// data locality.
	handoffPenalty = 0.010
	// fallbackSeconds is the routing penalty per artifact a region cannot
	// obtain (partitioned WAN, missing from the catalog): the cost of
	// degrading that work to software.
	fallbackSeconds = 0.250
	// preemptPenalty is the modelled restart cost a held batch workflow
	// pays every time a priority arrival pushes it back.
	preemptPenalty = 0.050
)

// Config configures a Federation. Every region's fleet places with HEFT
// over the flat cluster fabric.
type Config struct {
	// Regions is the number of federated regions (>= 1).
	Regions int
	// SitesPerRegion is each region's fleet size (>= 1).
	SitesPerRegion int
	// NewCluster builds region r, site s's cluster (required).
	NewCluster func(region, site int) *platform.Cluster
	// CacheSlots, PartialReconfig, Adaptive and RegistryNet configure each
	// region's fleet (fleet.Config semantics).
	CacheSlots      int
	PartialReconfig bool
	Adaptive        bool
	RegistryNet     *netsim.Stack
	// WAN prices inter-region transfers: workflow handoff payloads and
	// catalog→region artifact fetches (default the wan10g metro fabric).
	WAN *netsim.Stack
	// StoreSlots bounds each region's artifact store; filling it evicts
	// the least-recently-used bitstream (the catalog keeps the
	// authoritative copy, so eviction means a future WAN refetch).
	// 0 = unbounded.
	StoreSlots int
	// Prefetch turns on the forecast-driven warming loop.
	Prefetch bool
	// WindowSeconds is the forecast window (finite; <= 0 means the
	// default 0.25).
	WindowSeconds float64
	// WarmThreshold is the predicted next-window arrival count at which a
	// region stages an app's bitstreams (finite; <= 0 means the default
	// 0.5).
	WarmThreshold float64
	// ForecastLag is the KRR autoregression depth in windows (default 16;
	// it must cover a full period of any pattern worth anticipating).
	ForecastLag int
	// Partitions scripts WAN reachability faults (finite, non-empty
	// intervals).
	Partitions []Partition
	// Trace, when set, receives every region event (serialized).
	Trace func(Event)
	// FleetTrace, when set, receives every regional fleet's events tagged
	// with the region name, serialized with the region's own events.
	FleetTrace func(region string, ev fleet.Event)
	// EngineTrace, when set, receives every site engine's events tagged
	// with region and site, serialized likewise.
	EngineTrace func(region, site string, ev runtime.Event)
}

// Request is one workflow submission to the federation.
type Request struct {
	Tenant string
	Name   string
	// App labels the workflow for the demand forecaster; workflows of the
	// same app share bitstreams, and prefetch warms per app.
	App      string
	Workflow *runtime.Workflow
	// Home is the gateway region the request arrived at (its demand is
	// observed there; serving elsewhere pays the WAN handoff).
	Home int
	// Arrival is the modelled submission time (finite). Arrivals must be
	// submitted in non-decreasing order — the federation is a
	// modelled-time event loop, and prefetch and hold releases fire
	// between arrivals.
	Arrival float64
	// Class is the SLO class; Guaranteed requires a Deadline (relative
	// latency bound in modelled seconds, fleet semantics).
	Class    Class
	Deadline float64
	// InputBytes is the payload that must cross the WAN if the workflow
	// is served away from its home region.
	InputBytes int64
}

// Result is the region-level outcome of one workflow.
type Result struct {
	Region string
	Site   string

	Arrival   float64
	Handoff   float64 // WAN payload transfer stall (served away from home)
	Fetch     float64 // WAN artifact fetch stall on the serving path
	DataFetch float64 // always 0: the region tier stages no datasets (kept for callers that sum the parts)
	Hold      float64 // modelled time parked in the batch hold queue
	Wait      float64 // fleet queue delay
	Deploy    float64 // bitstream deployment stall
	Service   float64 // engine-measured service time

	Completion float64
	Latency    float64 // Completion - Arrival, all stalls included

	// Cold marks a serve that paid distribution costs (WAN fetch or site
	// deploy) on its critical path — the metric prefetch attacks.
	Cold bool

	// Guaranteed-class fields: the proven bound relative to Arrival.
	Guaranteed bool
	Bound      float64
}

// Handle is the caller's handle on one submitted workflow. Interactive
// and guaranteed work resolves inside SubmitAt; held batch work resolves
// when a later arrival, Drain or Shutdown releases it.
type Handle struct {
	fed  *Federation // its lock guards the fields below
	res  Result
	err  error
	held *held // non-nil while parked in the hold queue
}

// Wait returns the workflow's result. It never blocks on serving: on batch
// work still held it returns an error, and Drain (or Shutdown) serves it.
// It takes the federation lock, so trace callbacks must not call it.
func (h *Handle) Wait() (Result, error) {
	h.fed.mu.Lock()
	defer h.fed.mu.Unlock()
	if h.held != nil {
		return Result{}, fmt.Errorf("region: batch workflow %s is held; Drain serves it", h.held.req.Name)
	}
	return h.res, h.err
}

// held is one deferred batch workflow.
type held struct {
	h       *Handle
	req     Request
	release float64
	seq     int // FIFO tie-break
	pushes  int // preemption count
}

// RegionStats snapshots one region.
type RegionStats struct {
	Name   string
	Served int
	Failed int

	Guaranteed int
	Batch      int

	Handoffs int // served here for another region's gateway

	ColdServes  int
	Preemptions int

	WANFetches      int
	WANFetchSeconds float64
	PrefetchFetches int
	PrefetchSeconds float64
	Warms           int
	StoreEvictions  int // images the StoreSlots bound evicted (read from the store)

	Fleet fleet.Stats
}

// Stats aggregates the federation.
type Stats struct {
	Submitted int
	Completed int
	Failed    int
	Rejected  int

	ColdServes      int
	Preemptions     int
	Handoffs        int
	WANFetches      int
	PrefetchFetches int
	Warms           int

	BoundViolations int

	Makespan float64
	Regions  []RegionStats
}

// region is one member fleet plus its region-level serving state.
type region struct {
	idx  int
	name string
	reg  *platform.Registry // the images' registry entries (the fleet deploys from it)
	fl   *fleet.Fleet
	fc   *Forecaster

	held      []*held
	gFrontier float64 // latest guaranteed completion (batch holds behind it)
	nextRoll  float64

	// The region artifact store, guarded by the federation mutex: the
	// bitstreams (one entry each, bounded to StoreSlots; reg holds exactly
	// its IDs), WAN-fetched from the catalog on demand over imageLink, and
	// prefetch-eligible.
	images    *dataset.Store
	imageLink dataset.Link

	stats RegionStats
}

// Federation is the top-level router over regional fleets.
type Federation struct {
	cfg     Config
	wan     netsim.Stack
	regions []*region

	// mu guards everything below, all region state, and every registry
	// the federation serves from: the catalog and the region stores.
	mu        sync.Mutex
	catalog   *platform.Registry
	life      runtime.Lifecycle
	frontier  float64 // latest processed modelled time
	submitted int
	rejected  int
	heldSeq   int

	appNeeds map[string][]dataset.Part // app -> bitstreams (learned at first serve)

	// Scratch reused from call to call: route's candidate regions and
	// prefetch's due apps. Neither function is re-entered: route runs only
	// from SubmitAt and prefetch only from advance's rolls, which SubmitAt
	// and drain finish before they route or release, neither calls the
	// other or itself, and the trace callbacks they reach run under mu,
	// so they cannot call back into the federation.
	cands []routeCand
	due   []dueApp
}

// New builds a federation over an artifact catalog the caller hands over
// (later writes go through Publish). Each region gets its own fleet on its
// own (initially empty) registry; artifacts reach a region by WAN fetch
// from the catalog — on demand, or ahead of demand when prefetch is on.
func New(catalog *platform.Registry, cfg Config) (*Federation, error) {
	if catalog == nil {
		return nil, fmt.Errorf("region: nil catalog")
	}
	if cfg.Regions < 1 {
		return nil, fmt.Errorf("region: need >= 1 region, got %d", cfg.Regions)
	}
	if cfg.SitesPerRegion < 1 {
		return nil, fmt.Errorf("region: need >= 1 site per region, got %d", cfg.SitesPerRegion)
	}
	if cfg.NewCluster == nil {
		return nil, fmt.Errorf("region: NewCluster builder is required")
	}
	if cfg.WAN == nil {
		st := netsim.WAN10G()
		cfg.WAN = &st
	}
	// A non-finite window never rolls and a non-finite threshold warms no
	// app, so prefetch would silently never run: refuse both.
	if !finite(cfg.WindowSeconds) {
		return nil, fmt.Errorf("region: WindowSeconds must be finite, got %g", cfg.WindowSeconds)
	}
	if !finite(cfg.WarmThreshold) {
		return nil, fmt.Errorf("region: WarmThreshold must be finite, got %g", cfg.WarmThreshold)
	}
	if cfg.WindowSeconds <= 0 {
		cfg.WindowSeconds = 0.25
	}
	if cfg.WarmThreshold <= 0 {
		cfg.WarmThreshold = 0.5
	}
	for _, p := range cfg.Partitions {
		if p.Region < 0 || p.Region >= cfg.Regions {
			return nil, fmt.Errorf("region: partition targets region %d outside [0, %d)", p.Region, cfg.Regions)
		}
		if !finite(p.From) {
			return nil, fmt.Errorf("region: partition of region %d has a non-finite From %g", p.Region, p.From)
		}
		if !finite(p.Until) {
			return nil, fmt.Errorf("region: partition of region %d has a non-finite Until %g", p.Region, p.Until)
		}
		if p.Until <= p.From {
			return nil, fmt.Errorf("region: partition of region %d has empty interval [%g, %g)", p.Region, p.From, p.Until)
		}
	}
	f := &Federation{cfg: cfg, catalog: catalog, wan: *cfg.WAN,
		appNeeds: make(map[string][]dataset.Part)}
	for i := 0; i < cfg.Regions; i++ {
		i := i
		name := fmt.Sprintf("region%02d", i)
		reg := platform.NewRegistry()
		var ftrace func(fleet.Event)
		if cfg.FleetTrace != nil {
			ftrace = func(ev fleet.Event) { f.cfg.FleetTrace(name, ev) }
		}
		var etrace func(string, runtime.Event)
		if cfg.EngineTrace != nil {
			etrace = func(site string, ev runtime.Event) { f.cfg.EngineTrace(name, site, ev) }
		}
		fl, err := fleet.New(reg, fleet.Config{
			Sites:           cfg.SitesPerRegion,
			NewCluster:      func(site int) *platform.Cluster { return cfg.NewCluster(i, site) },
			CacheSlots:      cfg.CacheSlots,
			PartialReconfig: cfg.PartialReconfig,
			Adaptive:        cfg.Adaptive,
			RegistryNet:     cfg.RegistryNet,
			Trace:           ftrace,
			EngineTrace:     etrace,
		})
		if err != nil {
			return nil, fmt.Errorf("region: %s: %w", name, err)
		}
		r := &region{
			idx: i, name: name, reg: reg, fl: fl,
			fc:       NewForecaster(cfg.WindowSeconds, 0.5, cfg.ForecastLag),
			nextRoll: cfg.WindowSeconds,
			images:   dataset.NewStore(0, cfg.StoreSlots),
		}
		r.stats.Name = name
		// A region cut off from the WAN, or asking for an image the catalog
		// lacks, does without: the fallback penalty prices the software run.
		r.imageLink = func(p dataset.Part, at float64) (float64, bool) {
			if f.partitioned(r.idx, at) {
				return fallbackSeconds, false
			}
			ent, err := f.catalog.Entry(p.Ref.Name)
			if err != nil {
				return fallbackSeconds, false
			}
			return f.wan.SendSeconds(f.imageBytes(r, ent.Resources())), true
		}
		f.regions = append(f.regions, r)
	}
	return f, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Publish stores a bitstream in the federation-wide catalog under the
// federation lock; regions WAN-fetch it on demand or ahead of demand.
// After Shutdown it returns runtime.ErrShutDown.
func (f *Federation) Publish(bs platform.Bitstream) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Control); err != nil {
		return err
	}
	return f.catalog.Put(bs)
}

// Start brings every regional fleet up. After Shutdown it returns
// runtime.ErrShutDown, and a Start that fails shuts the federation down.
func (f *Federation) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Begin); err != nil {
		return err
	}
	for _, r := range f.regions {
		if err := r.fl.Start(); err != nil {
			f.shut()
			return fmt.Errorf("region: %s: %w", r.name, err)
		}
	}
	f.life = runtime.Serving
	return nil
}

// partitioned reports whether region r is WAN-unreachable at modelled
// time t.
func (f *Federation) partitioned(r int, t float64) bool {
	for _, p := range f.cfg.Partitions {
		if p.Region == r && t >= p.From && t < p.Until {
			return true
		}
	}
	return false
}

// SubmitAt routes one workflow. Interactive and guaranteed work is
// served to completion inside the call (modelled time; the handle is
// already resolved on return). Batch work may be parked in the hold
// queue and served by a later SubmitAt or Drain. An error means the
// request was rejected (guaranteed proof impossible, or invalid request);
// nothing was enqueued. An invalid request (nil
// workflow, home out of range, non-finite arrival, guaranteed without a
// positive finite deadline) touches no state and is not counted as
// rejected; neither does a request after Shutdown (runtime.ErrShutDown).
func (f *Federation) SubmitAt(req Request) (*Handle, error) {
	if req.Workflow == nil {
		return nil, fmt.Errorf("region: nil workflow")
	}
	if req.Home < 0 || req.Home >= len(f.regions) {
		return nil, fmt.Errorf("region: home region %d outside [0, %d)", req.Home, len(f.regions))
	}
	if !finite(req.Arrival) {
		return nil, fmt.Errorf("region: arrival %g is not a finite modelled time", req.Arrival)
	}
	if req.Class == Guaranteed && !(req.Deadline > 0 && req.Deadline < math.Inf(1)) {
		return nil, fmt.Errorf("region: guaranteed request needs a positive finite deadline, got %.3g", req.Deadline)
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Serve); err != nil {
		return nil, err
	}
	if req.Arrival < f.frontier {
		return nil, fmt.Errorf("region: arrival %.6g before frontier %.6g (arrivals must be non-decreasing)",
			req.Arrival, f.frontier)
	}
	f.frontier = req.Arrival
	// Batch arrivals flush due held work first (FIFO among batch);
	// priority arrivals do not — they preempt it instead, below.
	f.advance(req.Arrival, req.Class == Batch)

	f.submitted++
	if req.Name == "" {
		req.Name = fleet.WorkflowName(req.Tenant, f.submitted)
	}
	home := f.regions[req.Home]
	home.fc.Observe(req.App, req.Arrival)

	if req.Class == Batch {
		release := req.Arrival
		if home.gFrontier > release {
			release = home.gFrontier
		}
		if release > req.Arrival {
			// The guaranteed class owns the near frontier: park the batch
			// work behind it.
			h := &Handle{fed: f}
			f.heldSeq++
			hw := &held{h: h, req: req, release: release, seq: f.heldSeq}
			h.held = hw
			home.held = append(home.held, hw)
			if f.cfg.Trace != nil {
				f.trace(Event{Kind: EventHold, Region: home.name, Tenant: req.Tenant,
					Workflow: req.Name, App: req.App, Time: req.Arrival,
					Detail: fmt.Sprintf("release=%.4gs", release)})
			}
			return h, nil
		}
		h := &Handle{fed: f}
		f.serveNow(home, req, req.Arrival, h)
		return h, h.err
	}

	h := &Handle{fed: f}
	if err := f.route(req, h); err != nil {
		f.submitted--
		f.rejected++
		f.trace(Event{Kind: EventReject, Region: home.name, Tenant: req.Tenant,
			Workflow: req.Name, App: req.App, Time: req.Arrival, Detail: err.Error()})
		return nil, err
	}
	// Priority work completed: push back any held batch that was due —
	// in a preemptive system the batch must not have occupied the
	// frontier the priority work just used.
	f.preemptDue(req.Arrival, h.res.Completion)
	return h, nil
}

// route picks the serving region for interactive and guaranteed work and
// serves inline. Candidates are priced as
//
//	queueWait + handoff(WAN payload + penalty, non-home) + fetch estimate
//
// with the home region winning ties. Dataset reads are outside source
// data at this tier, even a partition another region's workflow wrote:
// they cost the same everywhere (nothing), so they never sway the route.
// A WAN partition (of home or of the candidate) removes every non-home
// candidate; the home region is always one. Guaranteed requests try
// candidates cheapest-first until one region's fleet proves the
// (stall-shrunk) deadline; when none can, the request is rejected.
func (f *Federation) route(req Request, h *Handle) error {
	home := req.Home
	needs := req.Workflow.Needs()
	cands := f.cands[:0]
	for _, r := range f.regions {
		if r.idx != home && (f.partitioned(home, req.Arrival) || f.partitioned(r.idx, req.Arrival)) {
			continue
		}
		handoff := 0.0
		if r.idx != home {
			handoff = f.wan.SendSeconds(req.InputBytes) + handoffPenalty
		}
		eff := req.Arrival + handoff
		cost := handoff + r.fl.QueueWait(eff) + r.images.Estimate(needs, eff, r.imageLink)
		cands = append(cands, routeCand{idx: r.idx, cost: cost})
	}
	f.cands = cands
	slices.SortFunc(cands, func(a, b routeCand) int { return a.compare(b, home) })
	if req.Class != Guaranteed {
		r := f.regions[cands[0].idx]
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventRoute, Region: r.name, Tenant: req.Tenant,
				Workflow: req.Name, App: req.App, Time: req.Arrival,
				Detail: fmt.Sprintf("cost=%.4gs of %d candidate(s)", cands[0].cost, len(cands))})
		}
		f.serveNow(r, req, req.Arrival, h)
		return h.err
	}
	var lastErr error
	for _, c := range cands {
		r := f.regions[c.idx]
		if err := f.tryGuaranteed(r, req, h); err != nil {
			lastErr = err
			continue
		}
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventRoute, Region: r.name, Tenant: req.Tenant,
				Workflow: req.Name, App: req.App, Time: req.Arrival,
				Detail: fmt.Sprintf("guaranteed cost=%.4gs of %d candidate(s)", c.cost, len(cands))})
		}
		return nil
	}
	return lastErr
}

// routeCand is one candidate serving region; ordering is cheapest-first
// with the home region winning ties, then index order — deterministic.
type routeCand struct {
	idx  int
	cost float64
}

func (a routeCand) less(b routeCand, home int) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if (a.idx == home) != (b.idx == home) {
		return a.idx == home
	}
	return a.idx < b.idx
}

// compare is less as a three-way comparison, for slices.SortFunc.
func (a routeCand) compare(b routeCand, home int) int {
	switch {
	case a.less(b, home):
		return -1
	case b.less(a, home):
		return 1
	}
	return 0
}

// tryGuaranteed serves a guaranteed request at region r: stalls (WAN
// handoff, artifact fetches) are charged first and shrink the deadline the
// fleet must prove.
func (f *Federation) tryGuaranteed(r *region, req Request, h *Handle) error {
	handoff, fetch := f.stage(r, req, req.Arrival)
	stall := handoff + fetch
	if req.Deadline <= stall {
		return fmt.Errorf("%w: %s: stalls %.4gs consume the %.4gs deadline",
			fleet.ErrSaturated, r.name, stall, req.Deadline)
	}
	tk, err := r.fl.Submit(fleet.Request{
		Tenant: req.Tenant, Name: req.Name, Workflow: req.Workflow,
		Arrival: req.Arrival + stall, Guaranteed: true, Deadline: req.Deadline - stall,
	})
	if err != nil {
		return err
	}
	f.finish(r, req, tk, nil, handoff, fetch, 0, h)
	return nil
}

// stage charges the serving-path stalls of req at region r from at: the
// WAN handoff (away from home), then artifact fetches.
func (f *Federation) stage(r *region, req Request, at float64) (handoff, fetch float64) {
	if r.idx != req.Home {
		handoff = f.wan.SendSeconds(req.InputBytes)
	}
	fetch = f.ensureArtifacts(r, req.Workflow.Needs(), at+handoff, false)
	return handoff, fetch
}

// serveNow serves one request at region r with the given serving-path
// arrival (the hold release for batch work), resolving h.
func (f *Federation) serveNow(r *region, req Request, at float64, h *Handle) {
	handoff, fetch := f.stage(r, req, at)
	tk, err := r.fl.Submit(fleet.Request{
		Tenant: req.Tenant, Name: req.Name, Workflow: req.Workflow,
		Arrival: at + handoff + fetch,
	})
	f.finish(r, req, tk, err, handoff, fetch, at-req.Arrival, h)
}

// finish waits out the fleet serve (unless its Submit failed with err) and
// fills the handle's result.
func (f *Federation) finish(r *region, req Request, tk *fleet.Ticket, err error, handoff, fetch, hold float64, h *Handle) {
	var res fleet.Result
	if err == nil {
		res, err = tk.Wait()
	}
	h.held = nil
	if err != nil {
		r.stats.Failed++
		h.err = fmt.Errorf("region: %s: %w", r.name, err)
		return
	}
	if req.App != "" {
		if _, ok := f.appNeeds[req.App]; !ok {
			f.appNeeds[req.App] = req.Workflow.Needs()
		}
	}
	cold := fetch > 0 || res.Deploy > 0
	out := Result{
		Region: r.name, Site: res.Site,
		Arrival: req.Arrival, Handoff: handoff, Fetch: fetch, Hold: hold,
		Wait: res.Wait, Deploy: res.Deploy, Service: res.Service,
		Completion: res.Completion, Latency: res.Completion - req.Arrival,
		Cold: cold, Guaranteed: res.Guaranteed,
	}
	if res.Guaranteed {
		out.Bound = handoff + fetch + res.Bound
		r.gFrontier = math.Max(r.gFrontier, res.Completion)
		r.stats.Guaranteed++
	} else if req.Class != Interactive {
		r.stats.Batch++ // batch work, and guaranteed work degraded to best-effort
	}
	r.stats.Served++
	if cold {
		r.stats.ColdServes++
	}
	if r.idx != req.Home {
		r.stats.Handoffs++
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventHandoff, Region: r.name, Tenant: req.Tenant,
				Workflow: req.Name, App: req.App, Time: req.Arrival,
				Detail: fmt.Sprintf("home=%s xfer=%.4gs", f.regions[req.Home].name, handoff)})
		}
	}
	h.res = out
	if f.cfg.Trace != nil {
		f.trace(Event{Kind: EventDone, Region: r.name, Tenant: req.Tenant,
			Workflow: req.Name, App: req.App, Time: res.Completion,
			Detail: fmt.Sprintf("class=%s latency=%.4gs cold=%v", req.Class, out.Latency, cold)})
	}
}

// ensureArtifacts makes every needed bitstream resident in region r's
// store, WAN-fetching the missing ones one after another from at, and
// returns the total modelled stall. Artifacts that cannot be obtained
// (partitioned WAN, absent from the catalog) are skipped — the fleet
// degrades those tasks to software, which is the modelled behaviour of a
// region cut off from the catalog. With prefetch set the fetches are
// control-plane traffic: accounted, but off any workflow's critical path.
func (f *Federation) ensureArtifacts(r *region, needs []dataset.Part, at float64, prefetch bool) float64 {
	seconds, _ := r.images.Stage(needs, at, "(fetch)", r.imageLink, func(x dataset.Fetch) {
		id := x.Part.Ref.Name
		if !x.Shipped {
			return
		}
		for _, ev := range x.Evicted {
			r.reg.Delete(ev.Ref.Name)
			f.trace(Event{Kind: EventEvictStore, Region: r.name, Bitstream: ev.Ref.Name, Time: x.At})
		}
		ent, _ := f.catalog.Entry(id) // the link shipped it, so the catalog has it
		r.reg.PutEntry(ent)
		kind := EventFetch
		if prefetch {
			kind = EventPrefetch
			r.stats.PrefetchFetches++
			r.stats.PrefetchSeconds += x.Seconds
		} else {
			r.stats.WANFetches++
			r.stats.WANFetchSeconds += x.Seconds
		}
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: kind, Region: r.name, Bitstream: id, Time: x.At,
				Detail: fmt.Sprintf("wan=%.4gs", x.Seconds)})
		}
	})
	return seconds
}

// imageBytes is the configuration image a WAN fetch of a bitstream of
// footprint need into region r ships: the largest whole-device staging
// image (platform.Device.StagingCost) among the region's devices that can
// host it (0 — a free fetch — only when no device fits, in which case the
// fleet will degrade to software anyway).
func (f *Federation) imageBytes(r *region, need hls.Resources) int64 {
	var best int64
	for si := 0; si < r.fl.Sites(); si++ {
		for _, n := range r.fl.Cluster(si).Nodes {
			for _, d := range n.Devices {
				if bytes, _ := d.StagingCost(-1); need.FitsIn(d.Capacity) && bytes > best {
					best = bytes
				}
			}
		}
	}
	return best
}

// preemptDue pushes every held batch workflow that was due by the
// priority arrival at t past the priority work's completion, plus the
// restart penalty.
func (f *Federation) preemptDue(t, completion float64) {
	for _, r := range f.regions {
		for _, hw := range r.held {
			if hw.release > t {
				continue
			}
			hw.release = math.Max(completion, t) + preemptPenalty
			hw.pushes++
			r.stats.Preemptions++
			if f.cfg.Trace != nil {
				f.trace(Event{Kind: EventPreempt, Region: r.name, Tenant: hw.req.Tenant,
					Workflow: hw.req.Name, App: hw.req.App, Time: t,
					Detail: fmt.Sprintf("pushed to %.4gs (%d)", hw.release, hw.pushes)})
			}
		}
	}
}

// advance processes every modelled event due by time t, in time order
// with deterministic tie-breaks: window rolls (forecast, prefetch), and — when flushHeld is set — hold-queue releases. A roll
// goes before a release due at the same time.
func (f *Federation) advance(t float64, flushHeld bool) {
	for {
		var roll *region
		for _, r := range f.regions {
			if r.nextRoll <= t && (roll == nil || r.nextRoll < roll.nextRoll) {
				roll = r
			}
		}
		if flushHeld {
			if hr, hw := f.nextHeld(t); hw != nil && (roll == nil || hw.release < roll.nextRoll) {
				f.release(hr, hw)
				continue
			}
		}
		if roll == nil {
			return
		}
		f.roll(roll, roll.nextRoll)
		roll.nextRoll += f.cfg.WindowSeconds
	}
}

// nextHeld returns the held batch workflow, across all regions, that is
// released first among those due by t: earliest release, then FIFO by
// submission. It returns a nil workflow when none is due.
func (f *Federation) nextHeld(t float64) (*region, *held) {
	var br *region
	var bh *held
	for _, r := range f.regions {
		for _, hw := range r.held {
			if hw.release <= t && (bh == nil || hw.release < bh.release ||
				(hw.release == bh.release && hw.seq < bh.seq)) {
				br, bh = r, hw
			}
		}
	}
	return br, bh
}

// release serves one held batch workflow at its release time.
func (f *Federation) release(r *region, hw *held) {
	for i, x := range r.held {
		if x == hw {
			r.held = append(r.held[:i], r.held[i+1:]...)
			break
		}
	}
	if f.cfg.Trace != nil {
		f.trace(Event{Kind: EventRelease, Region: r.name, Tenant: hw.req.Tenant,
			Workflow: hw.req.Name, App: hw.req.App, Time: hw.release,
			Detail: fmt.Sprintf("held %.4gs pushes=%d", hw.release-hw.req.Arrival, hw.pushes)})
	}
	f.serveNow(r, hw.req, hw.release, hw.h)
}

// roll processes one region's window boundary: close forecast windows
// and stage predicted demand (prefetch).
func (f *Federation) roll(r *region, at float64) {
	r.fc.RollTo(at)
	if f.cfg.Prefetch {
		f.prefetch(r, at)
	}
}

// prefetch stages the bitstreams of every app whose forecast demand for
// the next window crosses the threshold: WAN fetch into the region store
// if absent, cache warm into the least-busy site. All off the serving
// path — the modelled fetch and staging seconds are accounted, and the
// WAN occupancy is control-plane traffic. Apps are staged in ascending
// predicted demand (first-seen order breaks ties), so when the bounded
// store or site caches cannot hold every staged artifact, the hottest
// apps' bitstreams land last — most-recently-used — and survive the LRU.
func (f *Federation) prefetch(r *region, at float64) {
	due := f.due[:0]
	for _, app := range r.fc.Apps() {
		if _, ok := f.appNeeds[app]; !ok {
			continue // never served anywhere yet: nothing to stage
		}
		if pred := r.fc.Predict(app); pred >= f.cfg.WarmThreshold {
			due = append(due, dueApp{app, pred})
		}
	}
	f.due = due
	slices.SortStableFunc(due, func(a, b dueApp) int {
		switch {
		case a.pred < b.pred:
			return -1
		case b.pred < a.pred:
			return 1
		}
		return 0
	})
	for _, st := range due {
		needs := f.appNeeds[st.app]
		for i, p := range needs {
			// One image at a time: each is warmed before the next is staged.
			if f.ensureArtifacts(r, needs[i:i+1], at, true); !r.images.Holds(p.ID) {
				continue // partitioned, or absent from the catalog
			}
			if _, dt, err := r.fl.Warm(p, at); err == nil && dt > 0 {
				r.stats.Warms++
			}
		}
	}
}

// dueApp is one app prefetch stages, with its predicted demand.
type dueApp struct {
	app  string
	pred float64
}

// Drain advances modelled time to at and serves every held batch
// workflow (in release order), whatever its release time. Call it after
// the last arrival and before waiting on batch handles. On a federation
// that was shut down it does nothing: Shutdown already drained it.
func (f *Federation) Drain(at float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.life != runtime.Shut {
		f.drain(at)
	}
}

// drain is Drain under f.mu.
func (f *Federation) drain(at float64) {
	if at > f.frontier {
		f.frontier = at
	}
	f.advance(f.frontier, true)
	for {
		r, hw := f.nextHeld(math.Inf(1))
		if hw == nil {
			return
		}
		f.release(r, hw)
	}
}

// Shutdown drains held work, stops every regional fleet, started or not,
// and returns the final stats; every later mutating call returns
// runtime.ErrShutDown. Draining and closing share one lock section, so no
// submission lands between them to be held and never served.
func (f *Federation) Shutdown() Stats {
	f.mu.Lock()
	if f.life != runtime.Shut {
		f.drain(0)
		f.shut()
	}
	f.mu.Unlock()
	return f.Stats()
}

// shut closes the federation and its fleets (federation lock held): the
// end of Shutdown and of a failed Start.
func (f *Federation) shut() {
	f.life = runtime.Shut
	for _, r := range f.regions {
		r.fl.Shutdown()
	}
}

// Stats snapshots the federation.
func (f *Federation) Stats() Stats {
	f.mu.Lock()
	out := Stats{Submitted: f.submitted, Rejected: f.rejected,
		Regions: make([]RegionStats, 0, len(f.regions))}
	for _, r := range f.regions {
		rs := r.stats
		rs.StoreEvictions = r.images.Stats().Evictions
		rs.Fleet = r.fl.Stats()
		out.Completed += rs.Served
		out.Failed += rs.Failed
		out.ColdServes += rs.ColdServes
		out.Preemptions += rs.Preemptions
		out.Handoffs += rs.Handoffs
		out.WANFetches += rs.WANFetches
		out.PrefetchFetches += rs.PrefetchFetches
		out.Warms += rs.Warms
		out.BoundViolations += rs.Fleet.BoundViolations()
		if rs.Fleet.Makespan > out.Makespan {
			out.Makespan = rs.Fleet.Makespan
		}
		out.Regions = append(out.Regions, rs)
	}
	f.mu.Unlock()
	return out
}

// trace emits one region event. Every caller holds f.mu, which serializes
// the stream.
func (f *Federation) trace(ev Event) {
	if f.cfg.Trace == nil {
		return
	}
	f.cfg.Trace(ev)
}
