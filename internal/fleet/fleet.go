// Package fleet is the federation tier of the EVEREST runtime: many
// independent runtime.Engine sites (each its own simulated cluster, its own
// modelled timeline) behind one front door. The paper deploys the SDK's
// runtime per cloudFPGA site (§VI); this package adds the horizontal
// dimension the north star needs — a Router shards submitted workflows
// across sites using a cost model that combines per-site queue depth (the
// modelled completion frontier built from engine-measured service times),
// tenant affinity, and bitstream locality: deploying a bitstream to a
// site is priced (registry transfer over the netsim fabric plus
// reconfiguration latency), resident bitstreams are free, and a bound of
// CacheSlots resident bitstreams per site, evicted LRU, forces real
// eviction and redeploy traffic under churn. The site's nodes record what
// is programmed where (platform.Node.Holding, Vacant); the site keeps only
// their recency, in a dataset.Store.
//
// Time discipline: each site's engine advances its own modelled clock with
// no idle gaps (service times back to back). The fleet layers arrivals on
// top with the single-server queue recursion — a workflow routed to site s
// begins at max(arrival, site busy-until), pays its deployment stalls,
// then its engine-measured service time (the site's makespan delta), and
// the completion becomes the new busy-until. Everything is modelled
// seconds. Submit routes and serves each workflow under one fleet-wide
// lock before it returns, so concurrent submitters serialize in a total
// order, nothing admitted is ever still unserved, and every number is a
// pure function of that order — exactly deterministic across GOMAXPROCS.
package fleet

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"strconv"
	"sync"

	"everest/internal/dataset"
	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// ErrSaturated is returned by Submit when admission control rejects a
// workflow because every site's modelled queue exceeds the configured
// bound. Callers detect it with errors.Is.
var ErrSaturated = errors.New("fleet: all sites saturated")

// WorkflowName is the name a front gives an unnamed workflow: "tenant/wfN",
// N being the front's count of accepted submissions. The name is the
// engine's tie-break key, so its bytes are fixed; it costs one allocation.
func WorkflowName(tenant string, n int) string {
	var num [20]byte
	return tenant + "/wf" + string(strconv.AppendInt(num[:0], int64(n), 10))
}

// EventKind classifies fleet trace events.
type EventKind int

// Fleet trace event kinds.
const (
	// EventRoute fires when the router assigns a workflow to a site.
	EventRoute EventKind = iota
	// EventReject fires when admission control refuses a workflow.
	EventReject
	// EventCacheHit fires when a required bitstream is already resident.
	EventCacheHit
	// EventCacheMiss fires when a required bitstream must be deployed.
	EventCacheMiss
	// EventDeploy fires after a bitstream is transferred and programmed.
	EventDeploy
	// EventEvict fires when the bounded cache unprograms a victim.
	EventEvict
	// EventRedeploy fires when a deploy re-stages a bitstream this site
	// held before — the eviction (or unplug) traffic made it pay again.
	EventRedeploy
	// EventFallback fires when no online device can host a required
	// bitstream; the workflow's FPGA tasks will run in software.
	EventFallback
	// EventDone fires when a workflow's fleet-level completion is known.
	EventDone
	// EventWarm fires when a prefetch warms a bitstream into a site cache.
	EventWarm
	// EventDataFetch fires when a missing dataset partition is shipped to
	// the serving site over the registry fabric.
	EventDataFetch
	// EventDataPublish fires when a completed workflow publishes an output
	// partition to the site's dataset store.
	EventDataPublish
	// EventDataEvict fires when the bounded dataset store evicts a
	// partition to admit another.
	EventDataEvict
)

// eventNames holds each EventKind's name, indexed by kind.
var eventNames = [...]string{
	"route", "reject", "cache-hit", "cache-miss", "deploy", "evict",
	"redeploy", "fallback", "done", "warm", "data-fetch", "data-publish",
	"data-evict",
}

func (k EventKind) String() string {
	if k < 0 || int(k) >= len(eventNames) {
		return "unknown"
	}
	return eventNames[k]
}

// Event is one fleet trace record. Callbacks run under the fleet lock, so
// they need no locking of their own; they must not call back into the
// Fleet.
type Event struct {
	Kind      EventKind
	Site      string
	Tenant    string
	Workflow  string
	Bitstream string
	Time      float64 // modelled seconds
	Detail    string
}

// The router's and the guaranteed class's fixed prices.
const (
	// slowdownCap is the fleet's load contract: no node's CPU load factor
	// ever exceeds it (New refuses scripted EnvSlowdown events beyond it).
	// Guaranteed-class admission multiplies software worst cases by this
	// cap, which is what lets a proven bound survive slowdown faults.
	slowdownCap = 4
	// affinitySeconds is the routing penalty added to sites other than the
	// tenant's previous one: it keeps a tenant's bitstreams co-located
	// unless queueing or deployment costs say otherwise.
	affinitySeconds = 0.010
	// fallbackSeconds is the routing penalty per required bitstream a site
	// cannot host on any online device: the router's price for degrading
	// that workflow's FPGA work to software.
	fallbackSeconds = 0.250
)

// Config configures a Fleet.
type Config struct {
	// Sites is the number of federated engine sites (>= 1).
	Sites int
	// NewCluster builds site i's cluster (required; each site owns its
	// cluster exclusively, and its devices start unprogrammed: what the
	// site programs on them is its record of residency).
	NewCluster func(site int) *platform.Cluster
	// CacheSlots bounds how many bitstreams a site keeps resident
	// (default 1). Filling it evicts LRU — the victim's slot is
	// unprogrammed, so returning work pays a redeploy.
	CacheSlots int
	// PartialReconfig deploys bitstreams into per-device PR region slots
	// instead of programming whole devices: one card hosts up to
	// Device.Regions() kernels at once, deploys transfer and reconfigure
	// only a region-sized image slice, and evictions clear a single region.
	// Kernels too large for a region fall back to whole-device programming
	// on a card with no resident regions.
	PartialReconfig bool
	// Policy selects each engine's placement strategy.
	Policy runtime.Policy
	// Adaptive enables variant-aware scheduling per site engine.
	Adaptive bool
	// MaxQueueSeconds is the admission bound: a site whose modelled queue
	// wait exceeds it is ineligible, and when every site is, Submit
	// rejects with ErrSaturated. 0 means unlimited.
	MaxQueueSeconds float64
	// Net prices intra-site transfers (per-engine semantics; nil = flat
	// cluster fabric).
	Net *netsim.Stack
	// RegistryNet prices registry→site bitstream transfers on deploys and
	// dataset-partition fetches (default the eth100g data-center fabric).
	RegistryNet *netsim.Stack
	// DatasetStoreBytes bounds each site's dataset store — the LRU of
	// named partitions it holds next to its resident bitstreams. Filling it
	// evicts least-recently-used partitions, so returning readers pay a
	// refetch. Default 256 MiB; negative means unbounded.
	DatasetStoreBytes int64
	// PlacementBlind disables data-locality pricing in the router: every
	// site looks equally distant from every dataset, so workflows land by
	// queue/cache/affinity alone and missing partitions are shipped at
	// serve time. This is the contrast arm of the locality benchmark — the
	// fetch traffic is still paid, just never avoided.
	PlacementBlind bool
	// SiteEvents scripts per-site modelled-time environment faults
	// (index = site; engine EngineConfig.Events semantics). New refuses a
	// slowdown factor beyond slowdownCap.
	SiteEvents [][]runtime.EnvEvent
	// Trace, when set, receives every fleet event. It runs under the fleet
	// lock and must not call back into the Fleet.
	Trace func(Event)
	// EngineTrace, when set, receives every site engine's runtime events
	// tagged with the site name. Engine events fire only inside the
	// fleet's Submit, Start and Shutdown, on the caller's goroutine under
	// the fleet lock, so like Trace it must not call back into the Fleet.
	// The merged stream is deterministic: exactly one site serves at any
	// moment, so engine events nest between that workflow's Route and Done
	// events.
	EngineTrace func(site string, ev runtime.Event)
}

// Request is one workflow submission.
type Request struct {
	Tenant   string
	Name     string
	Workflow *runtime.Workflow
	// Arrival is the workflow's modelled submission time (finite and
	// non-negative); queueing delay is measured from it.
	Arrival float64
	// Guaranteed requests the proven-bound admission class: the request is
	// admitted only on a site whose modelled worst case — queue frontier,
	// estimate overhang, cold deploys and staging, and the workflow's
	// schedule-derived service bound — fits within Deadline. When no site
	// can prove the deadline, Submit rejects with ErrSaturated and serves
	// nothing. Best-effort traffic is unaffected.
	Guaranteed bool
	// Deadline is the relative latency bound (modelled seconds past
	// Arrival) a guaranteed request must provably meet. Required (> 0 and
	// finite) when Guaranteed is set.
	Deadline float64
}

// Result is the fleet-level outcome of one workflow.
type Result struct {
	Sched      *runtime.Schedule
	Site       string
	Arrival    float64
	Wait       float64 // modelled queueing delay before the site picked it up
	Deploy     float64 // modelled bitstream deployment stall it paid
	Fetch      float64 // modelled dataset staging stall it paid
	Service    float64 // engine-measured service time (site makespan delta)
	Completion float64 // modelled completion (fleet timeline)
	Latency    float64 // Completion - Arrival
	// FetchedBytes counts the dataset bytes shipped over the registry
	// fabric to stage this workflow's inputs; zero when every known
	// partition was already resident (the locality win).
	FetchedBytes int64
	// Guaranteed-class fields: Bound is the admission-time worst-case
	// latency the fleet proved (relative to Arrival, <= the request's
	// deadline); zero for best-effort work.
	Guaranteed bool
	Bound      float64
}

// Ticket is the caller's handle on one served workflow. The site that
// served it is Result.Site.
type Ticket struct {
	// sched is the storage the site engine serves the workflow into
	// (runtime.Engine.Serve); res.Sched points at it once it succeeded.
	sched runtime.Schedule
	res   Result
	err   error
}

// Wait returns the workflow's result. Submit serves before it returns the
// ticket, so Wait never blocks.
func (t *Ticket) Wait() (Result, error) { return t.res, t.err }

// SiteStats snapshots one site's serving and cache state.
type SiteStats struct {
	Name   string
	Served int
	Failed int

	CacheHits       int
	CacheMisses     int
	Evictions       int
	Redeploys       int // deploys of bitstreams this site held before
	FallbackDeploys int // required bitstreams no online device could host
	DeploySeconds   float64

	// Prefetch accounting: bitstreams staged by Warm (control-plane
	// deploys that stalled no workflow) and their modelled staging time.
	WarmDeploys int
	WarmSeconds float64

	// Dataset-store accounting: serve-time locality probes over known
	// partitions (hits read in place, misses ship), fetch traffic, publish
	// volume, and LRU evictions. Hits, misses and evictions are read from
	// the site store at snapshot; publishes count attempts, accepted or
	// not.
	DatasetHits           int
	DatasetMisses         int
	DatasetFetches        int
	DatasetFetchedBytes   int64
	DatasetFetchSeconds   float64
	DatasetPublished      int
	DatasetPublishedBytes int64
	DatasetEvictions      int

	// Guaranteed-class accounting: completions admitted on proof, and how
	// many of them missed their promised bound (the verifier gates this at
	// exactly zero).
	Guaranteed      int
	BoundViolations int

	BusyUntil float64 // modelled completion frontier
	Engine    runtime.EngineStats
}

// Stats aggregates the fleet.
type Stats struct {
	Submitted int
	Completed int
	Failed    int
	Rejected  int
	Makespan  float64 // latest site completion frontier
	Sites     []SiteStats
}

// CacheHits sums cache hits across sites.
func (st Stats) CacheHits() int { return sum(st, func(s SiteStats) int { return s.CacheHits }) }

// CacheMisses sums cache misses across sites.
func (st Stats) CacheMisses() int { return sum(st, func(s SiteStats) int { return s.CacheMisses }) }

// Evictions sums cache evictions across sites.
func (st Stats) Evictions() int { return sum(st, func(s SiteStats) int { return s.Evictions }) }

// Redeploys sums eviction- or fault-triggered redeploys across sites.
func (st Stats) Redeploys() int { return sum(st, func(s SiteStats) int { return s.Redeploys }) }

// BoundViolations sums guaranteed completions that missed their proven
// bound across sites — zero whenever the admission math is sound.
func (st Stats) BoundViolations() int {
	return sum(st, func(s SiteStats) int { return s.BoundViolations })
}

// DatasetHits sums serve-time dataset residency hits across sites.
func (st Stats) DatasetHits() int { return sum(st, func(s SiteStats) int { return s.DatasetHits }) }

// DatasetFetches sums dataset-partition fetches across sites.
func (st Stats) DatasetFetches() int {
	return sum(st, func(s SiteStats) int { return s.DatasetFetches })
}

// DatasetFetchedBytes sums the dataset bytes shipped between sites — the
// traffic data-locality routing exists to avoid.
func (st Stats) DatasetFetchedBytes() int64 {
	return sum(st, func(s SiteStats) int64 { return s.DatasetFetchedBytes })
}

// DatasetPublished sums partitions published to site stores across sites.
func (st Stats) DatasetPublished() int {
	return sum(st, func(s SiteStats) int { return s.DatasetPublished })
}

// DatasetEvictions sums dataset-store LRU evictions across sites.
func (st Stats) DatasetEvictions() int {
	return sum(st, func(s SiteStats) int { return s.DatasetEvictions })
}

// sum folds one per-site counter across sites.
func sum[T int | int64](st Stats, f func(SiteStats) T) T {
	var n T
	for _, s := range st.Sites {
		n += f(s)
	}
	return n
}

// site is one federated engine plus its fleet-side serving state, guarded
// by the fleet lock.
type site struct {
	name    string
	cluster *platform.Cluster
	engine  *runtime.Engine

	// bstore is the recency of the bitstreams resident on the site's
	// devices, keyed by need ID and bounded to CacheSlots entries. Where
	// each one is programmed is the nodes' record (holder), not a copy.
	bstore       *dataset.Store
	dstore       *dataset.Store // named-partition LRU beside the bitstreams
	everDeployed map[string]bool
	busyUntil    float64   // queue-recursion frontier (modelled)
	lastMakespan float64   // engine cumulative makespan after last workflow
	stats        SiteStats // counter fields only; snapshots fill the rest
}

// work is one routed workflow on its way through serve.
type work struct {
	t            *Ticket
	tenant, name string // the request's, defaulted by Submit
	wf           *runtime.Workflow
	arrival      float64
	needs        []dataset.Part // bitstreams the workflow's FPGA tasks request (Ref.Name is the ID)
	reads        []dataset.Part // known external dataset partitions the workflow reads

	// Guaranteed-class fields: the admitted deadline and proven bound
	// (relative to arrival).
	guaranteed bool
	deadline   float64
	bound      float64
}

// Fleet shards workflows across federated engine sites.
type Fleet struct {
	cfg   Config
	sites []*site

	// mu guards everything below and all site state: Submit routes and
	// serves under it, so submitters serialize in one total order.
	mu        sync.Mutex
	reg       *platform.Registry
	life      runtime.Lifecycle
	lastSite  map[string]int // tenant -> previous site (affinity)
	submitted int
	rejected  int

	// catalog records every partition placed or published anywhere in the
	// federation: the set data-locality pricing and serve-time fetches are
	// scoped to (unknown refs are outside sources, equidistant from every
	// site).
	catalog dataset.Catalog
	// registryLink prices a dataset fetch over the registry fabric.
	registryLink dataset.Link
}

// New builds a fleet over a bitstream registry the caller hands over (later
// writes go through Publish), the store deploys transfer from. Each site
// gets its own cluster from cfg.NewCluster and its own engine.
func New(reg *platform.Registry, cfg Config) (*Fleet, error) {
	if reg == nil {
		return nil, fmt.Errorf("fleet: nil registry")
	}
	if cfg.Sites < 1 {
		return nil, fmt.Errorf("fleet: need >= 1 site, got %d", cfg.Sites)
	}
	if cfg.NewCluster == nil {
		return nil, fmt.Errorf("fleet: NewCluster builder is required")
	}
	if cfg.CacheSlots < 1 {
		cfg.CacheSlots = 1
	}
	if cfg.RegistryNet == nil {
		st := netsim.Eth100G()
		cfg.RegistryNet = &st
	}
	switch {
	case cfg.DatasetStoreBytes == 0:
		cfg.DatasetStoreBytes = 256 << 20
	case cfg.DatasetStoreBytes < 0:
		cfg.DatasetStoreBytes = 0 // dataset.Store treats 0 as unbounded
	}
	// The slowdown cap is a contract, not a wish: refuse a configuration
	// whose own scripted faults would break the bound the guaranteed class
	// admits against. A NaN factor is not within it either.
	for i, evs := range cfg.SiteEvents {
		for _, ev := range evs {
			if ev.Kind == runtime.EnvSlowdown && !(ev.Factor <= slowdownCap) {
				return nil, fmt.Errorf("fleet: site %d scripts slowdown factor %.3g beyond the slowdown cap %d",
					i, ev.Factor, slowdownCap)
			}
		}
	}
	f := &Fleet{cfg: cfg, reg: reg, lastSite: make(map[string]int),
		catalog: make(dataset.Catalog),
		registryLink: func(p dataset.Part, _ float64) (float64, bool) {
			return cfg.RegistryNet.SendSeconds(p.Ref.Bytes), true
		}}
	for i := 0; i < cfg.Sites; i++ {
		c := cfg.NewCluster(i)
		if c == nil || len(c.Nodes) == 0 {
			return nil, fmt.Errorf("fleet: NewCluster(%d) returned an empty cluster", i)
		}
		var events []runtime.EnvEvent
		if i < len(cfg.SiteEvents) {
			events = cfg.SiteEvents[i]
		}
		siteName := fmt.Sprintf("site%02d", i)
		var engTrace func(runtime.Event)
		if cfg.EngineTrace != nil {
			engTrace = func(ev runtime.Event) { cfg.EngineTrace(siteName, ev) }
		}
		s := &site{
			name:    siteName,
			cluster: c,
			engine: runtime.NewEngine(c, runtime.EngineConfig{
				Policy: cfg.Policy, Adaptive: cfg.Adaptive,
				Events: events, Net: cfg.Net, Trace: engTrace,
			}),
			bstore:       dataset.NewStore(0, cfg.CacheSlots),
			dstore:       dataset.NewStore(cfg.DatasetStoreBytes, 0),
			everDeployed: make(map[string]bool),
		}
		s.stats.Name = s.name
		f.sites = append(f.sites, s)
	}
	return f, nil
}

// Sites returns the number of federated sites.
func (f *Fleet) Sites() int { return len(f.sites) }

// Cluster exposes site i's cluster (tests and CLIs inspect device state).
func (f *Fleet) Cluster(i int) *platform.Cluster { return f.sites[i].cluster }

// start returns when work arriving at the given modelled time begins on the
// site: the single-server queue recursion max(arrival, busyUntil). Every
// routed workflow is served before Submit returns, so busyUntil is the
// whole queue, and start - arrival is the queue wait the router prices, the
// guaranteed proof bounds and serving bills.
func (s *site) start(arrival float64) float64 { return max(arrival, s.busyUntil) }

// Publish stores a bitstream in the fleet's registry under the fleet lock;
// sites deploy it on demand. After Shutdown it returns
// runtime.ErrShutDown.
func (f *Fleet) Publish(bs platform.Bitstream) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Control); err != nil {
		return err
	}
	return f.reg.Put(bs)
}

// QueueWait returns the modelled queue delay a workflow arriving at the
// given time would see on the least-loaded site. The region tier prices
// inter-region handoff against this.
func (f *Fleet) QueueWait(arrival float64) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	best := math.Inf(1)
	for _, s := range f.sites {
		best = min(best, s.start(arrival)-arrival)
	}
	return best
}

// Warm pre-stages bitstream p, at modelled time at, into the least-busy
// site on which an online device fits it, without occupying the serving
// queue: staging runs on the deployment control plane concurrently with
// serving, so it steals no service time from workflows — which is what
// makes speculative prefetch pay. p is the bitstream ID interned as
// dataset.Ref{Name: id}, the part runtime.Workflow.Needs lists for it, so
// a caller holding a workflow's needs warms them without interning them
// again. An already-resident bitstream is a free no-op. Returns the
// chosen site index and the modelled staging seconds;
// an error means the fleet was shut down (runtime.ErrShutDown), the
// registry lacks the bitstream, or no online device fits it on any site,
// in which case the least-busy site records the fallback.
func (f *Fleet) Warm(p dataset.Part, at float64) (int, float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Control); err != nil {
		return -1, 0, err
	}
	ent, err := f.reg.Entry(p.Ref.Name)
	if err != nil {
		return -1, 0, fmt.Errorf("fleet: warm: %w", err)
	}
	best, fit := 0, -1
	for i, s := range f.sites {
		if s.live(p, at) {
			return i, 0, nil
		}
		if s.busyUntil < f.sites[best].busyUntil {
			best = i
		}
		if (fit < 0 || s.busyUntil < f.sites[fit].busyUntil) && s.fits(ent, f.cfg.PartialReconfig, at) {
			fit = i
		}
	}
	if fit >= 0 {
		best = fit
	}
	dt := f.warm(f.sites[best], p, at)
	if dt == 0 {
		return best, 0, fmt.Errorf("fleet: warm %s: no online device fits on %s", p.Ref.Name, f.sites[best].name)
	}
	return best, dt, nil
}

// WarmAll pre-stages bitstream id into every site's cache at
// modelled time at — the fleet-wide analogue of Warm for models every
// site is about to serve (a scattered map-reduce workload, a federation-
// wide rollout). Staging runs on the deployment control plane, so it
// stalls no workflow; already-resident sites are free no-ops. Returns the
// summed staging seconds. An error means the fleet was shut down
// (runtime.ErrShutDown) or the registry lacks the bitstream; sites where
// no online device fits it are skipped.
func (f *Fleet) WarmAll(id string, at float64) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Control); err != nil {
		return 0, err
	}
	if _, err := f.reg.Entry(id); err != nil {
		return 0, fmt.Errorf("fleet: warm-all: %w", err)
	}
	p := dataset.Intern(dataset.Ref{Name: id})
	total := 0.0
	for _, s := range f.sites {
		if !s.live(p, at) {
			total += f.warm(s, p, at)
		}
	}
	return total, nil
}

// warm stages bitstream p, not live on site s, at modelled time at on the
// deployment control plane, for Warm and WarmAll. Returns the staging
// seconds, 0 when no online device fits it.
func (f *Fleet) warm(s *site, p dataset.Part, at float64) float64 {
	f.dropStale(s, p, at)
	dt := f.deployOne(s, "prefetch", "warm:"+p.Ref.Name, p, at)
	if dt == 0 {
		return 0
	}
	s.stats.WarmDeploys++
	s.stats.WarmSeconds += dt
	if f.cfg.Trace != nil {
		f.trace(Event{Kind: EventWarm, Site: s.name, Tenant: "prefetch", Bitstream: p.Ref.Name,
			Time: at, Detail: fmt.Sprintf("staged in %.4gs", dt)})
	}
	return dt
}

// Start brings every site engine up. After Shutdown it returns
// runtime.ErrShutDown, and a Start that fails shuts the fleet down.
func (f *Fleet) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Begin); err != nil {
		return err
	}
	for _, s := range f.sites {
		if err := s.engine.Start(); err != nil {
			f.shut()
			return fmt.Errorf("fleet: %s: %w", s.name, err)
		}
	}
	f.life = runtime.Serving
	return nil
}

// Submit routes one workflow to the cheapest site and serves it to
// completion before returning, all under the fleet lock: the returned
// ticket is already resolved, and concurrent submitters serialize in one
// total order. Rejections (ErrSaturated) happen only under a configured
// MaxQueueSeconds admission bound or a guaranteed deadline no site can
// prove. An invalid request (nil workflow, negative or non-finite arrival,
// guaranteed without a positive finite deadline) is an error that is neither
// ErrSaturated nor counted as a rejection, and it touches no state; so is
// runtime.ErrShutDown after Shutdown.
func (f *Fleet) Submit(req Request) (*Ticket, error) {
	if req.Workflow == nil {
		return nil, fmt.Errorf("fleet: nil workflow")
	}
	if math.IsNaN(req.Arrival) || math.IsInf(req.Arrival, 0) {
		return nil, fmt.Errorf("fleet: arrival %g is not a finite modelled time", req.Arrival)
	}
	if req.Arrival < 0 {
		return nil, fmt.Errorf("fleet: arrival %g is before modelled time 0", req.Arrival)
	}
	if req.Guaranteed && !(req.Deadline > 0 && req.Deadline < math.Inf(1)) {
		return nil, fmt.Errorf("fleet: guaranteed request needs a positive finite deadline, got %.3g", req.Deadline)
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	needs := req.Workflow.Needs()
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Serve); err != nil {
		return nil, err
	}
	known := f.catalog.Known(req.Workflow.Reads())
	last, hasLast := f.lastSite[tenant]

	// Best-effort requests route by cost, guaranteed ones by proof; both
	// walk sites in index order with strict-less ties, so routing is a
	// pure function of fleet state.
	var idx int
	var bound float64
	var err error
	if req.Guaranteed {
		idx, bound, err = f.routeGuaranteed(req.Workflow, needs, known, req.Arrival, req.Deadline)
	} else {
		idx, err = f.route(tenant, last, hasLast, needs, known, req.Arrival)
	}
	if err != nil {
		f.rejected++
		if f.cfg.Trace != nil { // the refusal's text is formatted only when read
			f.trace(Event{Kind: EventReject, Tenant: tenant, Workflow: req.Name,
				Time: req.Arrival, Detail: err.Error()})
		}
		return nil, err
	}
	f.submitted++
	name := req.Name
	if name == "" {
		name = WorkflowName(tenant, f.submitted)
	}
	f.lastSite[tenant] = idx
	s := f.sites[idx]
	if f.cfg.Trace != nil {
		detail := fmt.Sprintf("needs=%d", len(needs))
		if req.Guaranteed {
			detail = fmt.Sprintf("needs=%d guaranteed bound=%.4gs deadline=%.4gs", len(needs), bound, req.Deadline)
		}
		f.trace(Event{Kind: EventRoute, Site: s.name, Tenant: tenant, Workflow: name,
			Time: req.Arrival, Detail: detail})
	}
	t := &Ticket{}
	f.serve(s, &work{t: t, tenant: tenant, name: name, wf: req.Workflow, arrival: req.Arrival, needs: needs, reads: known,
		guaranteed: req.Guaranteed, deadline: req.Deadline, bound: bound})
	return t, nil
}

// Shutdown refuses every later mutating call with runtime.ErrShutDown,
// stops the engines, started or not, and returns the final stats. Nothing
// is left to drain: every admitted workflow was served inside its Submit.
func (f *Fleet) Shutdown() Stats {
	f.mu.Lock()
	if f.life != runtime.Shut {
		f.shut()
	}
	f.mu.Unlock()
	return f.Stats()
}

// shut is Shutdown under the fleet lock, and the end of a failed Start.
func (f *Fleet) shut() {
	f.life = runtime.Shut
	for _, s := range f.sites {
		s.engine.Shutdown()
	}
}

// Stats snapshots the fleet.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := Stats{Submitted: f.submitted, Rejected: f.rejected, Sites: make([]SiteStats, 0, len(f.sites))}
	for _, s := range f.sites {
		ss := s.stats
		ds := s.dstore.Stats()
		ss.DatasetHits, ss.DatasetMisses, ss.DatasetEvictions = ds.Hits, ds.Misses, ds.Evictions
		ss.Evictions = s.bstore.Stats().Evictions
		ss.BusyUntil = s.busyUntil
		ss.Engine = s.engine.Stats()
		out.Completed += ss.Served
		out.Failed += ss.Failed
		if ss.BusyUntil > out.Makespan {
			out.Makespan = ss.BusyUntil
		}
		out.Sites = append(out.Sites, ss)
	}
	return out
}

// ---------------------------------------------------------------------------
// router

// route picks the cheapest eligible site for a workflow. Cost combines the
// modelled queue wait (the site's completion frontier past the arrival),
// the estimated deployment stall for bitstreams the site's cache does not
// hold (registry transfer + reconfiguration; a cache hit is free), the
// software-fallback penalty for bitstreams the site cannot host at all,
// the tenant-affinity penalty for leaving the tenant's previous site, and
// the data-locality fetch of federation-known input partitions the site
// does not hold (a site holding the data charges zero — compute moves to
// the data). Ties break on site order, so routing is deterministic.
func (f *Fleet) route(tenant string, last int, hasLast bool, needs, reads []dataset.Part, arrival float64) (int, error) {
	best, bestCost := -1, 0.0
	for i, s := range f.sites {
		cost, ok := f.siteCost(i, s, last, hasLast, needs, reads, arrival)
		if !ok {
			continue
		}
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("%w (%d sites, queue bound %.3gs)",
			ErrSaturated, len(f.sites), f.cfg.MaxQueueSeconds)
	}
	return best, nil
}

// routeGuaranteed admits a guaranteed request by proof. Every site is
// priced with the full admission inequality
//
//	wait + overhang + deployBound + fetch + serviceBound <= deadline
//
// where wait is the site's queue frontier past the arrival (site.start),
// overhang the engine's estimate frontier beyond the last settled
// makespan, deployBound the worst-case cold deployment of every needed
// bitstream, fetch the staging of every known dataset partition into a
// cold store (Store.Estimate on a nil store, which holds nothing), and
// serviceBound the workflow's schedule-derived serve-alone worst case
// (runtime.ServiceBound). Submit serves every admitted workflow before it
// returns, so no admitted work is ever still pending ahead of this one to
// add to the sum. The cheapest provable bound wins, site order breaking
// ties; when no site can prove the deadline the request is refused with
// ErrSaturated and nothing is served.
func (f *Fleet) routeGuaranteed(w *runtime.Workflow, needs, reads []dataset.Part, arrival, deadline float64) (int, float64, error) {
	// A nil store holds nothing: every known read is shipped cold.
	fetch := (*dataset.Store)(nil).Estimate(reads, arrival, f.registryLink)
	best, bestBound := -1, 0.0
	for i, s := range f.sites {
		svc, err := runtime.ServiceBound(w, s.cluster, f.reg, runtime.BoundOptions{
			SlowdownCap: slowdownCap, Net: f.cfg.Net,
		})
		if err != nil {
			continue // the site cannot bound the workflow at all
		}
		own := f.deployBound(s, needs) + fetch + svc
		bound, ok := f.admissionBound(s, arrival, own, deadline)
		if ok && (best < 0 || bound < bestBound) {
			best, bestBound = i, bound
		}
	}
	if best < 0 {
		return 0, 0, &deadlineRefusal{deadline: deadline, sites: len(f.sites)}
	}
	return best, bestBound, nil
}

// deadlineRefusal is routeGuaranteed's refusal: no site can prove the
// deadline. It wraps ErrSaturated and formats its text only when read, so
// a refusal costs one small allocation.
type deadlineRefusal struct {
	deadline float64
	sites    int
}

func (r *deadlineRefusal) Error() string {
	return fmt.Sprintf("%v: no site can prove a %.4gs deadline (%d sites)", ErrSaturated, r.deadline, r.sites)
}

func (r *deadlineRefusal) Unwrap() error { return ErrSaturated }

// admissionBound evaluates the guaranteed-class inequality on one site for
// a workflow whose own worst case (deploys, staging, service) is own,
// returning the proven relative bound; ok=false means the bound misses
// the deadline.
func (f *Fleet) admissionBound(s *site, arrival, own, deadline float64) (float64, bool) {
	wait := s.start(arrival) - arrival
	// Estimate overhang: the engine's placement frontier may sit past
	// the last settled makespan (estimates only ratchet down on reports),
	// and the next service delta is measured from the settled makespan — so
	// the gap is time the next workflow can be billed for.
	overhang := s.engine.Stats().Backlog - s.lastMakespan
	if overhang < 0 {
		overhang = 0
	}
	bound := wait + overhang + own
	if bound > deadline {
		return 0, false
	}
	return bound, true
}

// deployBound prices the worst-case cold deployment of every bitstream the
// workflow needs: per bitstream, the costliest whole-device staging
// (registry transfer of the full configuration image plus full
// reconfiguration) across the devices that can host it — which dominates
// every path deployOne can take, including the region-sized partial
// images. A bitstream no device fits costs nothing here: the deploy path
// falls back to software, which the service bound already covers.
func (f *Fleet) deployBound(s *site, needs []dataset.Part) float64 {
	total := 0.0
	for _, p := range needs {
		ent, err := f.reg.Entry(p.Ref.Name)
		if err != nil {
			continue
		}
		need := ent.Resources()
		worst := 0.0
		for _, n := range s.cluster.Nodes {
			for _, d := range n.Devices {
				if !need.FitsIn(d.Capacity) {
					continue
				}
				bytes, reconfig := d.StagingCost(-1)
				worst = max(worst, f.cfg.RegistryNet.SendSeconds(bytes)+reconfig)
			}
		}
		total += worst
	}
	return total
}

// siteCost prices routing a workflow to one site; ok=false means the site
// is saturated past the admission bound.
func (f *Fleet) siteCost(idx int, s *site, last int, hasLast bool, needs, reads []dataset.Part, arrival float64) (float64, bool) {
	at := s.start(arrival)
	wait := at - arrival
	if f.cfg.MaxQueueSeconds > 0 && wait > f.cfg.MaxQueueSeconds {
		return 0, false
	}
	cost := wait
	for _, p := range needs {
		cost += f.estimateDeploy(s, p, at)
	}
	if !hasLast || last != idx {
		cost += affinitySeconds
	}
	// Data locality: partitions the site does not hold must cross the
	// registry fabric, one transfer each, before the workflow can run,
	// which is what fetchData bills. PlacementBlind prices every site as
	// if the data were local (the contrast arm the data benchmarks
	// measure against).
	if !f.cfg.PlacementBlind {
		cost += s.dstore.Estimate(reads, at, f.registryLink)
	}
	return cost, true
}

// estimateDeploy prices bitstream p on the site for work starting at
// modelled time at: nothing when it is live there, else a cold deploy to
// the first slot that fits (platform.Device.Fit; vacancy aside, as an
// occupied slot only means an eviction, already priced by the CacheSlots
// bound), else fallbackSeconds, the router's penalty for running the work
// in software. A resident bitstream on a device offline by then is stale:
// the deploy path treats it as a miss, so the estimate does too.
func (f *Fleet) estimateDeploy(s *site, p dataset.Part, at float64) float64 {
	if s.live(p, at) {
		return 0
	}
	if ent, err := f.reg.Entry(p.Ref.Name); err == nil {
		for n, idx := range s.deployTargets(at) {
			if region, ok := n.Devices[idx].Fit(ent.Resources(), f.cfg.PartialReconfig); ok {
				bytes, reconfig := n.Devices[idx].StagingCost(region)
				return f.cfg.RegistryNet.SendSeconds(bytes) + reconfig
			}
		}
	}
	return fallbackSeconds
}

// deployTargets yields the devices a deploy may target at modelled time
// at: each device online then, on each node not failed, in node and
// device order. The router's estimate takes the first that fits, a
// deploy the first with a vacant slot (platform.Node.Slot).
func (s *site) deployTargets(at float64) iter.Seq2[*platform.Node, int] {
	return func(yield func(*platform.Node, int) bool) {
		for _, n := range s.cluster.Nodes {
			if _, failed := n.FailedAt(); failed {
				continue
			}
			for idx := range n.Devices {
				if n.DeviceOnlineAt(idx, at) && !yield(n, idx) {
					return
				}
			}
		}
	}
}

// fits reports whether an online device of the site could host bitstream
// ent at modelled time at once vacant: deployOne's walk, before it evicts.
func (s *site) fits(ent *platform.Entry, partial bool, at float64) bool {
	for n, idx := range s.deployTargets(at) {
		if _, ok := n.Devices[idx].Fit(ent.Resources(), partial); ok {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// serving

// serve deploys what the workflow needs, serves it on the site engine, then
// advances the site's modelled frontier with the queue recursion and
// resolves the ticket. Called by Submit under the fleet lock.
func (f *Fleet) serve(s *site, w *work) {
	t := w.t
	start := s.start(w.arrival)
	deploy := f.deployNeeds(s, w, start)
	fetch, fetchedBytes := f.fetchData(s, w, start+deploy)

	err := s.engine.Serve(w.wf, runtime.SubmitOptions{Name: w.name, Tenant: w.tenant}, &t.sched)

	if w.guaranteed {
		s.stats.Guaranteed++
	}
	if err != nil {
		s.stats.Failed++
		s.stats.DeploySeconds += deploy
		if w.guaranteed {
			// A failed guaranteed workflow never completed within its
			// deadline: the promise is broken by definition.
			s.stats.BoundViolations++
		}
		// The deployment stall was paid and the workflow may have partially
		// executed before failing; advance the site timeline accordingly so
		// the engine's clock progress is not misattributed to the NEXT
		// workflow's service delta.
		frontier := s.engine.Stats().Backlog
		partial := frontier - s.lastMakespan
		if partial < 0 {
			partial = 0
		}
		if frontier > s.lastMakespan {
			s.lastMakespan = frontier
		}
		s.busyUntil = start + deploy + fetch + partial
		t.err = fmt.Errorf("fleet: %s: %w", s.name, err)
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventDone, Site: s.name, Tenant: w.tenant,
				Workflow: w.name, Time: start, Detail: "error: " + err.Error()})
		}
		return
	}
	sched := &t.sched
	service := sched.Makespan - s.lastMakespan
	if service < 0 {
		service = 0
	}
	if sched.Makespan > s.lastMakespan {
		s.lastMakespan = sched.Makespan
	}
	completion := start + deploy + fetch + service
	s.busyUntil = completion
	s.stats.Served++
	s.stats.DeploySeconds += deploy
	if w.guaranteed && completion-w.arrival > w.deadline {
		s.stats.BoundViolations++
	}
	f.publishOutputs(s, w, completion)

	t.res = Result{
		Sched: sched, Site: s.name, Arrival: w.arrival,
		Wait: start - w.arrival, Deploy: deploy, Fetch: fetch, Service: service,
		FetchedBytes: fetchedBytes,
		Completion:   completion, Latency: completion - w.arrival,
		Guaranteed: w.guaranteed, Bound: w.bound,
	}
	if f.cfg.Trace != nil {
		f.trace(Event{Kind: EventDone, Site: s.name, Tenant: w.tenant, Workflow: w.name,
			Time: completion, Detail: fmt.Sprintf("latency=%.4gs", completion-w.arrival)})
	}
}

// deployNeeds stages every bitstream the workflow requests and the site
// does not hold, returning the total modelled deployment stall.
func (f *Fleet) deployNeeds(s *site, w *work, at float64) float64 {
	total := 0.0
	for _, p := range w.needs {
		id := p.Ref.Name
		if s.bstore.Contains(p.ID) && s.live(p, at+total) {
			s.stats.CacheHits++
			if f.cfg.Trace != nil {
				f.trace(Event{Kind: EventCacheHit, Site: s.name, Tenant: w.tenant,
					Workflow: w.name, Bitstream: id, Time: at + total})
			}
			continue
		}
		f.dropStale(s, p, at+total)
		s.stats.CacheMisses++
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventCacheMiss, Site: s.name, Tenant: w.tenant,
				Workflow: w.name, Bitstream: id, Time: at + total})
		}
		total += f.deployOne(s, w.tenant, w.name, p, at+total)
	}
	return total
}

// holder returns the node, device and region (-1: whole device) holding
// bitstream id on this site, or a nil node. The site programs each
// bitstream at most once, so the first holder is the only one, and every
// bitstream bstore holds has one.
func (s *site) holder(id string) (*platform.Node, int, int) {
	for _, n := range s.cluster.Nodes {
		if dev, region, ok := n.Holding(id); ok {
			return n, dev, region
		}
	}
	return nil, -1, -1
}

// live reports whether bitstream p is resident on the site on a device
// online at modelled time at. It leaves recency alone: routing and
// prefetch probe with it, serving touches the store first.
func (s *site) live(p dataset.Part, at float64) bool {
	if !s.bstore.Holds(p.ID) {
		return false
	}
	n, dev, _ := s.holder(p.Ref.Name)
	return n.DeviceOnlineAt(dev, at)
}

// evict unprograms resident bitstream p from its slot and drops it from
// the site store (counted as an eviction), returning where it was.
func (s *site) evict(p dataset.Part) (*platform.Node, int, int) {
	n, dev, region := s.holder(p.Ref.Name)
	_, _ = n.Unprogram(dev, region) // dev and region come from the node itself
	s.bstore.Evict(p.ID)
	return n, dev, region
}

// dropStale evicts bitstream p when the site holds it on a device that is
// offline at modelled time at (unplug churn), so a deploy re-stages it on
// a live device instead of displacing a live bitstream. Callers have
// checked that p is not live.
func (f *Fleet) dropStale(s *site, p dataset.Part, at float64) {
	if !s.bstore.Holds(p.ID) {
		return
	}
	n, dev, region := s.evict(p)
	if f.cfg.Trace != nil {
		f.trace(Event{Kind: EventEvict, Site: s.name, Bitstream: p.Ref.Name,
			Time: at, Detail: fmt.Sprintf("%s/%s offline", n.Name, slotName(dev, region))})
	}
}

// deployOne stages one bitstream that is not resident on the site,
// evicting LRU entries while the site is at CacheSlots or no vacant
// device slot remains. Each eviction is followed by a fresh search: the
// first vacant slot may come before the victim's. Returns the modelled
// stall (0 on software fallback).
func (f *Fleet) deployOne(s *site, tenant, wfName string, p dataset.Part, at float64) float64 {
	id := p.Ref.Name
	ent, err := f.reg.Entry(id)
	if err != nil {
		s.stats.FallbackDeploys++
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventFallback, Site: s.name, Tenant: tenant,
				Workflow: wfName, Bitstream: id, Time: at, Detail: err.Error()})
		}
		return 0
	}
	var node *platform.Node
	dev, region := -1, -1
	for {
		if s.bstore.Len() < f.cfg.CacheSlots {
			for n, idx := range s.deployTargets(at) {
				if r, ok := n.Slot(idx, ent.Resources(), f.cfg.PartialReconfig); ok {
					node, dev, region = n, idx, r
					break
				}
			}
			if node != nil {
				break
			}
		}
		victim, ok := s.bstore.Oldest()
		if !ok {
			// Nothing left to evict and still no hosting device: the
			// site's accelerators are offline, too small, or gone.
			s.stats.FallbackDeploys++
			if f.cfg.Trace != nil {
				f.trace(Event{Kind: EventFallback, Site: s.name, Tenant: tenant,
					Workflow: wfName, Bitstream: id, Time: at, Detail: "no online device fits"})
			}
			return 0
		}
		vn, vdev, vregion := s.evict(dataset.Part{Ref: victim.Ref, ID: victim.ID})
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventEvict, Site: s.name, Bitstream: victim.Ref.Name,
				Time: at, Detail: fmt.Sprintf("lru from %s/%s", vn.Name, slotName(vdev, vregion))})
		}
	}
	if _, err := node.Program(dev, region, ent.Bitstream()); err != nil {
		s.stats.FallbackDeploys++
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventFallback, Site: s.name, Tenant: tenant,
				Workflow: wfName, Bitstream: id, Time: at, Detail: err.Error()})
		}
		return 0
	}
	bytes, reconfig := node.Devices[dev].StagingCost(region)
	xfer := f.cfg.RegistryNet.SendSeconds(bytes)
	s.bstore.Publish(dataset.Version{Ref: p.Ref, ID: p.ID})
	kind := EventDeploy
	if s.everDeployed[id] {
		s.stats.Redeploys++
		kind = EventRedeploy
	}
	s.everDeployed[id] = true
	if f.cfg.Trace != nil {
		f.trace(Event{Kind: kind, Site: s.name, Tenant: tenant,
			Workflow: wfName, Bitstream: id, Time: at,
			Detail: fmt.Sprintf("%s/%s xfer=%.4gs reconfig=%.3gs", node.Name, slotName(dev, region), xfer, reconfig)})
	}
	return xfer + reconfig
}

// slotName renders a device slot for trace details: "dev0" whole-device,
// "dev0.r2" for PR region 2.
func slotName(dev, region int) string {
	if region >= 0 {
		return fmt.Sprintf("dev%d.r%d", dev, region)
	}
	return fmt.Sprintf("dev%d", dev)
}

// trace emits events in order. Every caller holds the fleet lock.
func (f *Fleet) trace(evs ...Event) {
	if f.cfg.Trace == nil {
		return
	}
	for _, ev := range evs {
		f.cfg.Trace(ev)
	}
}
