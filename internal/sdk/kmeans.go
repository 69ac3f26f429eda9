package sdk

import (
	"fmt"

	"everest/internal/apps"
	"everest/internal/fleet"
	"everest/internal/variants"
)

// This file is the E-data scenario: the FPGA map-reduce k-means workload
// driven through the fleet's named data plane. Point partitions are
// scattered across the federation before serving (the ingest plane), and
// each round submits one map workflow per partition (the compiled assign
// kernel) followed by a reduce workflow (the compiled update kernel)
// whose refreshed centroids supersede the previous model by lineage. The
// scenario's contrast knob is PlacementBlind: with locality pricing the
// router moves the maps to their data; blind, the same workload ships
// partitions to wherever the queues happen to balance.

// KMeansScenario configures a map-reduce k-means run over the fleet.
type KMeansScenario struct {
	// Sites is the federation width (default 4).
	Sites int
	// Rounds is the number of map+reduce iterations (default 3).
	Rounds int
	// Config shapes the compiled workload; zero fields take the
	// apps.KMeansConfig defaults. The benchmark raises Points so the data
	// plane, not the kernel, dominates the modelled cost.
	Config apps.KMeansConfig
	// PlacementBlind disables data-locality pricing (the contrast arm).
	PlacementBlind bool
	// DatasetStoreBytes bounds each site's dataset store (fleet.Config
	// semantics: 0 = default, negative = unbounded).
	DatasetStoreBytes int64
	// RegistryNet names the inter-site data/deploy fabric ("" = eth100g).
	RegistryNet string
	// Trace receives fleet events when set.
	Trace func(fleet.Event)
}

// KMeansResult is the outcome of one k-means serving run.
type KMeansResult struct {
	Workflows        int     // map and reduce workflows completed
	Makespan         float64 // modelled completion of the last round
	Throughput       float64 // workflows per modelled second
	ShippedBytes     int64   // dataset bytes staged over the registry fabric
	BytesPerWorkflow float64 // ShippedBytes / Workflows
	FetchStall       float64 // summed modelled dataset staging stalls
	DatasetHits      int     // serve-time locality probes answered in place
	DatasetMisses    int
	Stats            FleetServerStats
}

// DefaultKMeansScenario is the E-data configuration: a 4-site federation
// over the 1 Gb/s WAN serving 3 rounds of 8 map shards, with partitions
// big enough that the registry fabric, not the kernels, is the scarce
// resource. BenchmarkDatasetLocality and the CLI drivers share it.
func DefaultKMeansScenario() KMeansScenario {
	return KMeansScenario{
		Sites:       4,
		Rounds:      3,
		Config:      apps.KMeansConfig{Partitions: 8, Points: 2048, Dims: 16, Centroids: 8},
		RegistryNet: "wan1g",
	}
}

// scatterSite places partition p in a fixed pattern decorrelated from the
// submission order: ingest planes hash data across sites, so residency
// must not accidentally line up with where queue balancing would have
// sent the matching map anyway — that alignment would let a blind router
// look placement-aware by coincidence.
func scatterSite(p, sites int) int { return (p*3 + 1) % sites }

// Run executes the scenario: scatter the partitions, then Rounds
// iterations of (one map per partition, one reduce), each round submitted
// at the modelled completion frontier of the previous one so the reduce
// reads the weights its maps published.
func (sc KMeansScenario) Run() (KMeansResult, error) {
	if sc.Sites == 0 {
		sc.Sites = 4
	}
	if sc.Rounds == 0 {
		sc.Rounds = 3
	}
	km, err := apps.BuildKMeans(apps.DefaultOptions(), sc.Config)
	if err != nil {
		return KMeansResult{}, err
	}
	srv, err := NewFleetServer(FleetConfig{
		Sites: sc.Sites,
		// All three round kernels stay resident at every site (they are
		// warmed below); a single slot would churn them against each other
		// every round and the deploy traffic would drown the data-plane
		// contrast.
		CacheSlots:        3,
		RegistryNet:       sc.RegistryNet,
		DatasetStoreBytes: sc.DatasetStoreBytes,
		PlacementBlind:    sc.PlacementBlind,
		Trace:             sc.Trace,
	})
	if err != nil {
		return KMeansResult{}, err
	}
	for _, c := range []*variants.Compiled{km.Assign, km.Partial, km.Update} {
		if err := srv.Publish(c.Design.Bitstream); err != nil {
			return KMeansResult{}, err
		}
	}
	if err := srv.Start(); err != nil {
		return KMeansResult{}, err
	}

	// Ingest: stage the round kernels fleet-wide on the control plane (the
	// model is known before the data arrives), scatter the point
	// partitions, and seed the initial centroids. With the bitstreams warm
	// everywhere, routing differences between the arms are purely
	// data-driven.
	fl := srv.Fleet()
	for _, c := range []*variants.Compiled{km.Assign, km.Partial, km.Update} {
		if _, err := fl.WarmAll(c.Design.Bitstream.ID, 0); err != nil {
			return KMeansResult{}, err
		}
	}
	points := km.PointRefs()
	for p, ref := range points {
		if err := fl.PlaceDataset(scatterSite(p, sc.Sites), 0, ref); err != nil {
			return KMeansResult{}, err
		}
	}
	// The initial model is broadcast: it is a few hundred bytes riding the
	// same control-plane rollout as the bitstreams, so every site starts
	// with the centroids and a map shard's home site is strictly free.
	for i := 0; i < sc.Sites; i++ {
		if err := fl.PlaceDataset(i, 0, km.CentroidRef()); err != nil {
			return KMeansResult{}, err
		}
	}

	var out KMeansResult
	account := func(res fleet.Result) {
		out.Workflows++
		out.ShippedBytes += res.FetchedBytes
		out.FetchStall += res.Fetch
		if res.Completion > out.Makespan {
			out.Makespan = res.Completion
		}
	}
	now := 0.0
	for r := 0; r < sc.Rounds; r++ {
		// Map: one shard per partition, all arriving at the same modelled
		// instant. The fleet serves each inside its SubmitAt, so routing
		// reads fully settled modelled state (busy horizons, residency) and
		// the trace is byte-identical across GOMAXPROCS. The modelled
		// arrivals still tie, so the maps contend for sites exactly as a
		// burst would.
		frontier := now
		for p := range points {
			t, err := srv.SubmitAt("kmeans", fmt.Sprintf("map-r%d-p%d", r, p), km.MapWorkflow(p), now)
			if err != nil {
				return KMeansResult{}, fmt.Errorf("sdk: kmeans round %d map %d: %w", r, p, err)
			}
			res, err := t.Wait()
			if err != nil {
				return KMeansResult{}, fmt.Errorf("sdk: kmeans round %d map %d: %w", r, p, err)
			}
			account(res)
			if res.Completion > frontier {
				frontier = res.Completion
			}
		}
		// Reduce: gathers every shard's weights once the round's maps have
		// published them.
		t, err := srv.SubmitAt("kmeans", fmt.Sprintf("reduce-r%d", r), km.ReduceWorkflow(), frontier)
		if err != nil {
			return KMeansResult{}, fmt.Errorf("sdk: kmeans round %d reduce: %w", r, err)
		}
		res, err := t.Wait()
		if err != nil {
			return KMeansResult{}, fmt.Errorf("sdk: kmeans round %d reduce: %w", r, err)
		}
		account(res)
		now = res.Completion
	}

	out.Stats = srv.Shutdown()
	for _, s := range out.Stats.Fleet.Sites {
		out.DatasetHits += s.DatasetHits
		out.DatasetMisses += s.DatasetMisses
	}
	if out.Workflows > 0 {
		out.BytesPerWorkflow = float64(out.ShippedBytes) / float64(out.Workflows)
	}
	if out.Makespan > 0 {
		out.Throughput = float64(out.Workflows) / out.Makespan
	}
	return out, nil
}

// LocalityWin serves the scenario with data-locality routing and then
// placement-blind and returns both runs; the win is the blind arm's
// shipped bytes per workflow over the locality arm's.
func (sc KMeansScenario) LocalityWin() (local, blind KMeansResult, err error) {
	sc.PlacementBlind = false
	if local, err = sc.Run(); err == nil {
		sc.PlacementBlind = true
		blind, err = sc.Run()
	}
	return local, blind, err
}
