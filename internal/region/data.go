package region

import (
	"fmt"

	"everest/internal/dataset"
	"everest/internal/runtime"
)

// This file generalizes the region artifact store to data: each region
// caches published dataset partitions next to its bitstream images
// (region.dstore), WAN-fetches the ones it is missing from the
// federation, and prefetches them ahead of forecast demand exactly like
// bitstreams. The federation keeps a dataset catalog (dataCat) mirroring
// the bitstream catalog: only partitions placed or published somewhere
// are priced and fetched — an unknown ref is outside source data that
// costs the same everywhere and drops out of the routing argmin.
//
// The tiering composes without double-charging: a WAN fetch lands a
// partition in the *region* store only, so the regional fleet (which
// prices its own site-local stores against its own catalog) never
// re-bills the same transfer; a partition published inside a region
// reaches both that fleet's site store (fleet publishOutputs) and the
// region store (publishData), so a later serve pays neither fabric.

// PlaceDataset seeds partitions into region r's store at modelled time
// at — the ingest step a federation scenario runs before serving. The
// partitions become known federation-wide, so routing prices their
// locality from then on. Placement is free (ingest plane, not WAN).
func (f *Federation) PlaceDataset(r int, at float64, refs ...dataset.Ref) error {
	if r < 0 || r >= len(f.regions) {
		return fmt.Errorf("region: region %d outside [0, %d)", r, len(f.regions))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	reg := f.regions[r]
	for _, ref := range refs {
		p := dataset.Intern(ref)
		reg.evicted = reg.dstore.Publish(dataset.Version{
			Ref: ref, ID: p.ID, Time: at, Workflow: "(placed)", Task: "(placed)",
		}, reg.evicted[:0])
		reg.stats.DataPublished++
		reg.stats.DataEvictions += len(reg.evicted)
		f.dataCat.Add(p.ID)
	}
	return nil
}

// DatasetResident reports whether region r's store currently holds the
// partition (tests and scenario assertions; no LRU perturbation).
func (f *Federation) DatasetResident(r int, ref dataset.Ref) bool {
	if r < 0 || r >= len(f.regions) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.regions[r].dstore.Holds(dataset.Intern(ref).ID)
}

// dataEstimate prices the WAN staging a serve at region r would pay for
// the known reads it is missing — the data-locality term of the
// top-level routing cost, symmetric with fetchEstimate for bitstreams.
// Each partition is charged exactly once: the WAN transfer when it is
// reachable, the fallback penalty when the region is partitioned off.
func (f *Federation) dataEstimate(r *region, known []dataset.Part, at float64) float64 {
	total := 0.0
	for _, p := range known {
		if r.dstore.Holds(p.ID) {
			continue
		}
		if f.partitioned(r.idx, at) {
			total += fallbackSeconds
			continue
		}
		total += f.wan.SendSeconds(p.Ref.Bytes)
	}
	return total
}

// ensureData stages every known read region r's store is missing,
// WAN-fetching serially, and returns the total modelled stall. A
// partitioned region skips the fetch (the serve proceeds on what it
// holds, the modelled behaviour of a region cut off from the
// federation). With prefetch set the fetch is control-plane traffic:
// accounted, but off any workflow's critical path.
func (f *Federation) ensureData(r *region, known []dataset.Part, at float64, prefetch bool) float64 {
	total := 0.0
	for _, p := range known {
		ref := p.Ref
		if r.dstore.Contains(p.ID) {
			continue
		}
		if f.partitioned(r.idx, at+total) {
			r.stats.PartitionSkips++
			continue
		}
		dt := f.wan.SendSeconds(ref.Bytes)
		r.evicted = r.dstore.Publish(dataset.Version{
			Ref: ref, ID: p.ID, Time: at + total, Workflow: "(fetch)", Task: "(fetch)",
		}, r.evicted[:0])
		r.stats.DataEvictions += len(r.evicted)
		kind := EventDataFetch
		if prefetch {
			kind = EventDataPrefetch
			r.stats.DataPrefetches++
		} else {
			r.stats.DataFetches++
			r.stats.DataFetchSeconds += dt
			r.stats.DataFetchedBytes += ref.Bytes
			total += dt
		}
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: kind, Region: r.name, Time: at + total,
				Detail: fmt.Sprintf("%v %dB wan=%.4gs", p.ID.Value(), ref.Bytes, dt)})
		}
	}
	return total
}

// publishData admits a completed workflow's output partitions into the
// serving region's store and the federation catalog — the cross-region
// sharing step, free like every publish (the data was produced here).
// Callers hold f.mu.
func (f *Federation) publishData(r *region, w *runtime.Workflow, name string, completion float64) {
	for _, o := range w.Outputs() {
		r.evicted = r.dstore.Publish(dataset.Version{
			Ref: o.Ref, ID: o.ID, Time: completion, Workflow: name, Task: o.Task,
		}, r.evicted[:0])
		r.stats.DataPublished++
		r.stats.DataEvictions += len(r.evicted)
		f.dataCat.Add(o.ID)
	}
}
