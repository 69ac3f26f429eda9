package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"everest/internal/apps"
	"everest/internal/dataset"
	"everest/internal/fleet"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/variants"
)

// kmeans-data runs several k-means jobs at once, each over its own
// datasets (jobNN/points, weights, partial, centroids) sized from the
// compiled kernels' byte accounting. Point partitions are scattered over a
// 4-site 1 Gb/s fleet by the seed, and each site's dataset store holds
// about half its share of the working set, so published writes evict
// reads every round. A round is a burst of map shards then a reduce;
// the jobs' rounds are merged in arrival order.
const (
	kdSites      = 4
	kdJobs       = 8
	kdPartitions = 8
	kdPoints     = 8192
	kdDims       = 16
	kdCentroids  = 8
	kdRounds     = 8
	kdTinyJobs   = 2
	kdTinyPoints = 256
	kdTinyRounds = 3
)

type kmeansData struct {
	seed         uint64
	jobs, rounds int
	cfg          apps.KMeansConfig
	km           *apps.KMeans
	points       [][]dataset.Ref // per job, per partition
	centroids    []dataset.Ref   // per job
	maps         [][]*runtime.Workflow
	reduces      []*runtime.Workflow
	tenants      []string
	storeBytes   int64
}

func newKMeansData(seed uint64, tiny bool) workload {
	w := &kmeansData{seed: seed, jobs: kdJobs, rounds: kdRounds,
		cfg: apps.KMeansConfig{Partitions: kdPartitions, Points: kdPoints, Dims: kdDims, Centroids: kdCentroids}}
	if tiny {
		w.jobs, w.rounds, w.cfg.Points = kdTinyJobs, kdTinyRounds, kdTinyPoints
	}
	return w
}

func (w *kmeansData) build(tr *tracer) (time.Duration, int, error) {
	tr.begin("variants.compile", -1)
	t0 := time.Now()
	km, err := apps.BuildKMeans(apps.DefaultOptions(), w.cfg)
	compile := time.Since(t0)
	tr.end()
	if err != nil {
		return 0, 0, err
	}
	w.km = km
	if err := w.jobWorkflows(); err != nil {
		return 0, 0, err
	}
	srv, err := w.server(episodeRNG(w.seed, 0), nil)
	if err != nil {
		return 0, 0, err
	}
	srv.Shutdown()
	return compile, 3, nil
}

// jobWorkflows builds every job's map and reduce workflows over the job's
// own dataset names, with the sizes the compiled kernels move.
func (w *kmeansData) jobWorkflows() error {
	km := w.km
	pt, wt, pa := km.PointRefs()[0].Bytes, km.WeightRefs()[0].Bytes, km.PartialRefs()[0].Bytes
	ce := km.CentroidRef().Bytes
	w.points, w.centroids, w.maps, w.reduces, w.tenants = nil, nil, nil, nil, nil
	var working int64
	for j := 0; j < w.jobs; j++ {
		job := fmt.Sprintf("job%02d", j)
		centroids := dataset.Single(job+"/centroids", ce)
		var points, partials []dataset.Ref
		var maps []*runtime.Workflow
		for p := 0; p < w.cfg.Partitions; p++ {
			point := dataset.Ref{Name: job + "/points", Partition: p, Bytes: pt}
			weight := dataset.Ref{Name: job + "/weights", Partition: p, Bytes: wt}
			partial := dataset.Ref{Name: job + "/partial", Partition: p, Bytes: pa}
			points, partials = append(points, point), append(partials, partial)
			working += pt + wt + pa

			wf := runtime.NewWorkflow()
			assign := km.Assign.Task(fmt.Sprintf("assign%d", p))
			assign.InputBytes, assign.OutputBytes = 0, 0
			assign.Reads, assign.Writes = []dataset.Ref{point, centroids}, []dataset.Ref{weight}
			fold := km.Partial.Task(fmt.Sprintf("partial%d", p), assign.Name)
			fold.InputBytes, fold.OutputBytes = 0, 0
			fold.Reads, fold.Writes = []dataset.Ref{weight, point}, []dataset.Ref{partial}
			for _, t := range []runtime.TaskSpec{assign, fold} {
				if err := wf.Submit(t); err != nil {
					return fmt.Errorf("kmeans-data %s map %d: %w", job, p, err)
				}
			}
			wf.SetVariants(append(km.Assign.Variants(), km.Partial.Variants()...))
			maps = append(maps, wf)
		}
		working += ce
		reduce := runtime.NewWorkflow()
		update := km.Update.Task("update")
		update.InputBytes, update.OutputBytes = 0, 0
		update.Reads, update.Writes = partials, []dataset.Ref{centroids}
		if err := reduce.Submit(update); err != nil {
			return fmt.Errorf("kmeans-data %s reduce: %w", job, err)
		}
		reduce.SetVariants(km.Update.Variants())

		w.points = append(w.points, points)
		w.centroids = append(w.centroids, centroids)
		w.maps = append(w.maps, maps)
		w.reduces = append(w.reduces, reduce)
		w.tenants = append(w.tenants, job)
	}
	w.storeBytes = working / 2 / kdSites
	return nil
}

// server builds a fleet, warms the three kernels everywhere, scatters
// every job's point partitions as rng draws them, and broadcasts each
// job's initial centroids.
func (w *kmeansData) server(rng *rand.Rand, tr *tracer) (*sdk.FleetServer, error) {
	cfg := sdk.FleetConfig{
		Sites: kdSites, CacheSlots: 3,
		RegistryNet:       "wan1g",
		DatasetStoreBytes: w.storeBytes,
	}
	if fh, eh := tr.hook(hookFleet), tr.hook(hookRuntime); fh != nil {
		cfg.Trace = func(fleet.Event) { fh() }
		cfg.EngineTrace = func(string, runtime.Event) { eh() }
	}
	srv, err := sdk.NewFleetServer(cfg)
	if err != nil {
		return nil, err
	}
	kernels := []*variants.Compiled{w.km.Assign, w.km.Partial, w.km.Update}
	for _, c := range kernels {
		if err := srv.Publish(c.Design.Bitstream); err != nil {
			return nil, err
		}
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	fl := srv.Fleet()
	for _, c := range kernels {
		if _, err := fl.WarmAll(c.Design.Bitstream.ID, 0); err != nil {
			return nil, err
		}
	}
	// The scatter is balanced: each site holds the same number of every
	// job's partitions, at random.
	for j := range w.points {
		for p, slot := range rng.Perm(len(w.points[j])) {
			if err := fl.PlaceDataset(slot%kdSites, 0, w.points[j][p]); err != nil {
				return nil, err
			}
		}
		for s := 0; s < kdSites; s++ {
			if err := fl.PlaceDataset(s, 0, w.centroids[j]); err != nil {
				return nil, err
			}
		}
	}
	return srv, nil
}

// kmeansJob is one job's position in its rounds.
type kmeansJob struct {
	round, next   int     // next < Partitions: a map; == Partitions: the reduce
	now, frontier float64 // the round's map arrival; its latest map completion
}

func (w *kmeansData) episode(k int, _ float64, rec *record, tr *tracer, m *meter) error {
	rng := episodeRNG(w.seed, k)
	srv, err := w.server(rng, tr)
	if err != nil {
		return err
	}
	jobs := make([]kmeansJob, w.jobs)
	next := runtime.NewTimeHeap(w.jobs)
	for j := range jobs {
		jobs[j].now = rng.Float64() // jobs start within the first modelled second
		next.Push(runtime.TimeItem{Time: jobs[j].now, Seq: j})
	}
	outs := make([]fleetOutcome, 0, w.jobs*w.rounds*(w.cfg.Partitions+1))

	m.start()
	tr.begin("episode", -1)
	for next.Len() > 0 {
		it := next.PopMin()
		j, js := it.Seq, &jobs[it.Seq]
		wf := w.reduces[j]
		if js.next < w.cfg.Partitions {
			wf = w.maps[j][js.next]
		}
		tr.begin("op", int64(len(outs)))
		tr.begin("fleet.submit", -1)
		tk, err := srv.SubmitAt(w.tenants[j], "", wf, it.Time)
		tr.end()
		if err != nil && !errors.Is(err, fleet.ErrSaturated) {
			srv.Shutdown()
			return fmt.Errorf("kmeans-data op %d: %w", len(outs), err)
		}
		o := fleetOutcome{status: opRejected}
		completion := it.Time
		if err == nil {
			tr.begin("runtime.wait", -1)
			o.res, err = tk.Wait()
			tr.end()
			o.status = opDone
			if err != nil {
				o.status = opFailed
			} else {
				completion = o.res.Completion
			}
		}
		tr.end()
		outs = append(outs, o)
		if js.next < w.cfg.Partitions {
			js.frontier = max(js.frontier, completion)
			js.next++
			if js.next < w.cfg.Partitions {
				next.Push(runtime.TimeItem{Time: js.now, Seq: j})
			} else {
				next.Push(runtime.TimeItem{Time: js.frontier, Seq: j}) // the reduce reads every partial
			}
			continue
		}
		js.round++
		js.next, js.now, js.frontier = 0, completion, completion
		if js.round < w.rounds {
			next.Push(runtime.TimeItem{Time: js.now, Seq: j})
		}
	}
	st := srv.Shutdown()
	tr.end()
	m.stop(int64(len(outs)))

	d := newDigest()
	foldFleet(rec, d, outs, st.Fleet)
	rec.digests = append(rec.digests, d.sum())
	return nil
}
