package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"everest/internal/apps"
	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/region"
	"everest/internal/runtime"
	"everest/internal/sdk"
)

// region-wave is the E-region geometry: 3 regions of 3 sites over the
// 1 Gb/s WAN, a wave of the three suite apps whose home region rotates
// every 4 arrivals, background batch churn on its own bitstream, some
// wave arrivals asking for a proven bound, and forecast-driven prefetch.
// An episode is kept short because the forecaster's cost grows faster
// than linearly with the modelled time an episode spans (until its
// history cap); the modelled metrics pool many episodes instead.
const (
	rwRegions    = 3
	rwSites      = 3
	rwNodes      = 2
	rwSlots      = 4
	rwBlock      = 4
	rwBatchOdds  = 5 // one arrival in rwBatchOdds is batch
	rwGuarOdds   = 7 // one wave arrival in rwGuarOdds is guaranteed
	rwDeadline   = 12.0
	rwTenants    = 8
	rwInputBytes = 24 << 20
	rwOps        = 100
	rwTinyOps    = 40
)

type regionWave struct {
	seed  uint64
	ops   int
	suite *apps.Suite
	batch platform.Bitstream
}

func newRegionWave(seed uint64, tiny bool) workload {
	w := &regionWave{seed: seed, ops: rwOps}
	if tiny {
		w.ops = rwTinyOps
	}
	w.batch = sdk.ScenarioBitstream()
	w.batch.ID, w.batch.Kernel = "bench-batch-mc", "mc-batch"
	return w
}

func (w *regionWave) build(tr *tracer) (time.Duration, int, error) {
	tr.begin("variants.compile", -1)
	t0 := time.Now()
	s, err := apps.BuildSuite(apps.DefaultOptions(), apps.Names()...)
	compile := time.Since(t0)
	tr.end()
	if err != nil {
		return 0, 0, err
	}
	w.suite = s
	kernels := 0
	for _, a := range s.Apps {
		kernels += len(a.Kernels)
	}
	srv, err := w.server(nil)
	if err != nil {
		return 0, 0, err
	}
	srv.Shutdown()
	return compile, kernels, nil
}

func (w *regionWave) server(tr *tracer) (*sdk.RegionServer, error) {
	cfg := sdk.RegionConfig{
		Regions: rwRegions, SitesPerRegion: rwSites, NodesPerSite: rwNodes,
		CacheSlots: rwSlots, StoreSlots: rwSlots, PartialReconfig: true,
		Adaptive: true, RegistryNet: "tcp10g", WAN: "wan1g",
		Prefetch: true, WindowSeconds: 1, WarmThreshold: 0.25, ForecastLag: 16,
	}
	if rh, fh, eh := tr.hook(hookRegion), tr.hook(hookFleet), tr.hook(hookRuntime); rh != nil {
		cfg.Trace = func(region.Event) { rh() }
		cfg.FleetTrace = func(string, fleet.Event) { fh() }
		cfg.EngineTrace = func(string, string, runtime.Event) { eh() }
	}
	srv, err := sdk.NewRegionServer(cfg)
	if err != nil {
		return nil, err
	}
	for _, bs := range append(w.suite.Bitstreams(), w.batch) {
		if err := srv.Publish(bs); err != nil {
			return nil, err
		}
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// regionOp is one generated submission and what became of it.
type regionOp struct {
	req        region.Request
	batch      bool
	guaranteed bool

	h      *region.Handle
	status int8
	res    region.Result
}

// inputs draws episode k. Arrivals are a Poisson stream conditioned on
// its count: the episode's ops at sorted uniform times over exactly
// ops/rate seconds. The forecaster's host cost grows with the modelled
// time an episode spans, so a fixed span keeps that cost a property of
// the code rather than of the draw. Mix choices are stratified the same
// way: every block of rwBatchOdds arrivals holds one batch op, every
// block of rwGuarOdds wave ops one guaranteed op, every block of three
// wave ops one op of each app, at random positions.
func (w *regionWave) inputs(k int, rate float64) []regionOp {
	rng := episodeRNG(w.seed, k)
	span := float64(w.ops) / rate
	at := make([]float64, w.ops)
	for i := range at {
		at[i] = span * rng.Float64()
	}
	sort.Float64s(at)
	ops := make([]regionOp, w.ops)
	var batchAt, guarAt int
	var apps []int
	wave := 0
	for i := range ops {
		if i%rwBatchOdds == 0 {
			batchAt = i + rng.IntN(rwBatchOdds)
		}
		o := &ops[i]
		o.req = region.Request{Arrival: at[i], InputBytes: rwInputBytes}
		if i == batchAt {
			o.batch = true
			o.req.Tenant, o.req.App, o.req.Class = "batch", "mc", region.Batch
			o.req.Home = rng.IntN(rwRegions)
			o.req.Workflow = sdk.AdaptiveWorkflow(i, w.batch.ID)
			continue
		}
		if wave%rwGuarOdds == 0 {
			guarAt = wave + rng.IntN(rwGuarOdds)
		}
		if len(apps) == 0 {
			apps = rng.Perm(len(w.suite.Apps))
		}
		app := w.suite.Apps[apps[0]]
		apps = apps[1:]
		o.req.Tenant = fmt.Sprintf("tenant%02d", rng.IntN(rwTenants))
		o.req.App, o.req.Workflow = app.Name, app.Workflow(i)
		o.req.Home = (i / rwBlock) % rwRegions
		o.req.Class = region.Interactive
		if wave == guarAt {
			o.guaranteed = true
			o.req.Class, o.req.Deadline = region.Guaranteed, rwDeadline
		}
		wave++
	}
	return ops
}

func (w *regionWave) episode(k int, rate float64, rec *record, tr *tracer, m *meter) error {
	ops := w.inputs(k, rate)
	srv, err := w.server(tr)
	if err != nil {
		return err
	}
	var admitted, refused int

	m.start()
	tr.begin("episode", -1)
	for i := range ops {
		o := &ops[i]
		tr.begin("op", int64(i))
		tr.begin("region.submit", -1)
		o.h, err = srv.SubmitAt(o.req)
		tr.end()
		if o.guaranteed {
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, fleet.ErrSaturated):
				refused++ // no region can prove the bound: degrade to interactive
				o.req.Class, o.req.Deadline = region.Interactive, 0
				tr.begin("region.submit", -1)
				o.h, err = srv.SubmitAt(o.req)
				tr.end()
			}
		}
		switch {
		case errors.Is(err, fleet.ErrSaturated):
			o.status = opRejected
		case err != nil:
			srv.Shutdown()
			return fmt.Errorf("region-wave op %d: %w", i, err)
		case !o.batch: // priority work resolves inside SubmitAt
			tr.begin("region.wait", -1)
			o.res, err = o.h.Wait()
			tr.end()
			if err != nil {
				o.status = opFailed
			}
		}
		tr.end()
	}
	tr.begin("region.drain", -1)
	srv.Drain(ops[len(ops)-1].req.Arrival)
	tr.end()
	for i := range ops {
		if o := &ops[i]; o.batch && o.status == opDone {
			if o.res, err = o.h.Wait(); err != nil {
				o.status = opFailed
			}
		}
	}
	st := srv.Shutdown()
	tr.end()
	m.stop(int64(len(ops)))

	w.fold(rec, ops, st.Federation, admitted, refused)
	return nil
}

// fold folds one episode. The latency metrics cover the wave (interactive
// and guaranteed) ops: batch work is parked until the episode drains by
// design, so its latency measures the episode's length, not the system.
func (w *regionWave) fold(rec *record, ops []regionOp, st region.Stats, admitted, refused int) {
	d := newDigest()
	var completed, failed, rejected, cold int64
	for i := range ops {
		o := &ops[i]
		rec.attempted++
		d.i(int64(o.status))
		if o.status != opDone {
			if o.status == opRejected {
				rejected++
			} else {
				failed++
			}
			if !o.batch {
				rec.miss()
			}
			continue
		}
		completed++
		r := o.res
		if !o.batch {
			rec.lat = append(rec.lat, r.Latency)
		}
		d.s(r.Region)
		d.s(r.Site)
		for _, x := range []float64{r.Arrival, r.Handoff, r.Fetch, r.DataFetch, r.Hold, r.Wait, r.Deploy,
			r.Service, r.Completion, r.Latency, r.Bound} {
			d.f(x)
		}
		if r.Cold {
			cold++
		}
		if r.Guaranteed && r.Latency > r.Bound+ledgerTolerance {
			rec.violations++
		}
		parts := r.Handoff + r.Fetch + r.DataFetch + r.Hold + r.Wait + r.Deploy + r.Service
		if math.Abs(r.Latency-parts) > ledgerTolerance {
			rec.count("region.ledger_gaps", 1)
		}
		rec.sample("region.handoff_s", r.Handoff)
		rec.sample("region.fetch_s", r.Fetch)
		rec.sample("region.hold_s", r.Hold)
		rec.sample("region.coldstart_s", r.Latency-r.Service)
		rec.sample("fleet.wait_s", r.Wait)
		rec.sample("fleet.deploy_s", r.Deploy)
		rec.sample("runtime.service_s", r.Service)
	}
	rec.completed += completed
	rec.failed += failed
	rec.rejected += rejected
	rec.span += st.Makespan
	if int64(st.Completed) != completed || int64(st.Failed) != failed ||
		int64(st.Rejected) != rejected+int64(refused) {
		rec.fail("region counts %d completed, %d failed, %d rejected; the load generator saw %d, %d, %d (+%d guarantees refused)",
			st.Completed, st.Failed, st.Rejected, completed, failed, rejected, refused)
	}
	rec.violations += int64(st.BoundViolations)
	rec.count("region.completed", float64(completed))
	rec.count("region.cold", float64(cold))
	rec.count("region.prefetch_fetches", float64(st.PrefetchFetches))
	rec.count("region.handoffs", float64(st.Handoffs))
	rec.count("guaranteed.admitted", float64(admitted))
	rec.count("guaranteed.refused", float64(refused))
	for _, r := range st.Regions {
		rec.count("fleet.cache_hits", float64(r.Fleet.CacheHits()))
		rec.count("fleet.cache_misses", float64(r.Fleet.CacheMisses()))
		rec.count("fleet.evictions", float64(r.Fleet.Evictions()))
		rec.count("fleet.redeploys", float64(r.Fleet.Redeploys()))
	}
	for _, x := range []int{st.Submitted, st.Completed, st.Failed, st.Rejected, st.ColdServes, st.Preemptions,
		st.Handoffs, st.WANFetches, st.PrefetchFetches, st.Warms, admitted, refused} {
		d.i(int64(x))
	}
	d.f(st.Makespan)
	rec.digests = append(rec.digests, d.sum())
}
