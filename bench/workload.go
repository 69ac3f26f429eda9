package main

import (
	"math"
	"math/rand/v2"
	"time"

	"everest/internal/fleet"
	"everest/internal/runtime"
)

// A workload is one traffic mix over one tier of the stack. It generates
// every input from the run's seed, and drives the layers only through
// their public APIs.
type workload interface {
	// build compiles the workload's kernels and brings one server up and
	// down: the set-up a user pays before serving. It returns the time
	// spent compiling and the number of kernels compiled. The artifacts of
	// the last build serve every episode.
	build(tr *tracer) (compile time.Duration, kernels int, err error)
	// episode serves episode k at the offered rate on a fresh server,
	// folding every modelled result into rec; m times the serving phase.
	// One load-generator goroutine submits each op and waits for it before the
	// next, so in modelled time the arrivals form an open loop (they are
	// stamped, never late) while on the host it is a closed loop with one
	// caller.
	episode(k int, rate float64, rec *record, tr *tracer, m *meter) error
}

// spec is a workload's fixed shape: the same on every commit, so two
// commits do the same work.
type spec struct {
	name string
	// episodes is how many independent episodes (fresh servers, inputs
	// drawn from (seed, episode)) the modelled results cover.
	episodes int
	// nominal is the offered rate the headline metrics are measured at;
	// ladder, when set, lists every rung the SLO search serves, nominal
	// included. Rates are ops (events on stream-feed) per modelled second.
	nominal float64
	ladder  []float64
	// slo is the p99 latency limit a ladder rung must meet (seconds).
	slo  float64
	make func(seed uint64, tiny bool) workload
}

var specs = []spec{
	{
		name:     "fleet-churn",
		episodes: 10,
		nominal:  24, ladder: []float64{12, 24, 30, 36}, slo: 2,
		make: newFleetChurn,
	},
	{
		name:     "region-wave",
		episodes: 40,
		nominal:  2,
		make:     newRegionWave,
	},
	{
		name:     "stream-feed",
		episodes: 1,
		nominal:  4000, ladder: []float64{2000, 3000, 4000, 4600}, slo: 0.25,
		make: newStreamFeed,
	},
	{
		name:     "kmeans-data",
		episodes: 128,
		nominal:  0,
		make:     newKMeansData,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// episodeRNG is the input generator of episode k: the same (seed, k)
// always draws the same inputs, whatever the rate they are served at.
func episodeRNG(seed uint64, k int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(k)))
}

// fleetOutcome is one fleet submission as the load generator saw it.
type fleetOutcome struct {
	status int8 // opDone, opRejected or opFailed
	res    fleet.Result
}

const (
	opDone int8 = iota
	opRejected
	opFailed
)

// ledgerTolerance is how far a fleet result's parts may sum from its
// latency (float rounding of four additions).
const ledgerTolerance = 1e-9

// foldFleet folds one episode's fleet outcomes and final stats into rec
// and d, checking that every result's latency is the sum of its parts,
// that no admitted guarantee missed its bound, and that the fleet's own
// counters agree with what the load generator saw. Latencies enter rec.lat in
// submission order; ops that did not complete as +Inf.
func foldFleet(rec *record, d *digest, outs []fleetOutcome, st fleet.Stats) {
	var completed, failed, fetched int64
	for i, o := range outs {
		rec.attempted++
		d.i(int64(o.status))
		switch o.status {
		case opRejected:
			rec.rejected++
			rec.miss()
			continue
		case opFailed:
			failed++
			rec.miss()
			continue
		}
		completed++
		r := o.res
		rec.lat = append(rec.lat, r.Latency)
		d.s(r.Site)
		for _, x := range []float64{r.Arrival, r.Wait, r.Deploy, r.Fetch, r.Service, r.Completion, r.Latency, r.Bound} {
			d.f(x)
		}
		d.i(r.FetchedBytes)
		if parts := r.Wait + r.Deploy + r.Fetch + r.Service; math.Abs(r.Latency-parts) > ledgerTolerance {
			rec.fail("op %d: latency %.12g s is not wait+deploy+fetch+service %.12g s", i, r.Latency, parts)
		}
		if r.Guaranteed && r.Latency > r.Bound+ledgerTolerance {
			rec.violations++
		}
		fetched += r.FetchedBytes
		rec.sample("fleet.wait_s", r.Wait)
		rec.sample("fleet.deploy_s", r.Deploy)
		rec.sample("fleet.fetch_s", r.Fetch)
		rec.sample("runtime.service_s", r.Service)
		foldSchedule(rec, d, r.Sched)
	}
	rec.completed += completed
	rec.failed += failed
	rec.span += st.Makespan
	rec.count("dataset.op_fetched_b", float64(fetched))
	if int64(st.Completed) != completed || int64(st.Failed) != failed || int64(st.Submitted) != completed+failed {
		rec.fail("fleet counts %d submitted, %d completed, %d failed; the load generator saw %d completed, %d failed",
			st.Submitted, st.Completed, st.Failed, completed, failed)
	}
	if fetched != st.DatasetFetchedBytes() {
		rec.fail("results bill %d dataset bytes, the fleet counted %d", fetched, st.DatasetFetchedBytes())
	}
	rec.violations += int64(st.BoundViolations())
	misses := 0
	for _, s := range st.Sites {
		misses += s.DatasetMisses
	}
	rec.count("dataset.misses", float64(misses))
	rec.count("fleet.cache_hits", float64(st.CacheHits()))
	rec.count("fleet.cache_misses", float64(st.CacheMisses()))
	rec.count("fleet.evictions", float64(st.Evictions()))
	rec.count("fleet.redeploys", float64(st.Redeploys()))
	rec.count("dataset.hits", float64(st.DatasetHits()))
	rec.count("dataset.fetched_b", float64(st.DatasetFetchedBytes()))
	rec.count("dataset.published", float64(st.DatasetPublished()))
	rec.count("dataset.evictions", float64(st.DatasetEvictions()))
	for _, x := range []int{st.Submitted, st.Completed, st.Failed, st.Rejected, st.CacheHits(), st.CacheMisses(),
		st.Evictions(), st.Redeploys(), st.DatasetHits(), misses, st.DatasetPublished(), st.DatasetEvictions()} {
		d.i(int64(x))
	}
	d.f(st.Makespan)
}

// foldSchedule folds the engine's schedule of one completed workflow.
func foldSchedule(rec *record, d *digest, s *runtime.Schedule) {
	if s == nil {
		return
	}
	fpga := 0
	for _, a := range s.Assignments {
		if a.OnFPGA {
			fpga++
		}
	}
	rec.count("runtime.tasks", float64(len(s.Assignments)))
	rec.count("runtime.fpga_tasks", float64(fpga))
	rec.count("runtime.fallbacks", float64(s.Adapt.Fallbacks))
	rec.count("runtime.reschedules", float64(s.Adapt.Reschedules))
	rec.count("runtime.moved_b", float64(s.MovedBytes))
	d.i(int64(len(s.Assignments)))
	d.i(int64(fpga))
	d.i(int64(s.Adapt.Fallbacks))
	d.i(int64(s.Adapt.Reschedules))
	d.i(s.MovedBytes)
}
