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
// the bitstream catalog: only partitions published somewhere are priced
// and fetched — an unknown ref is outside source data that
// costs the same everywhere and drops out of the routing argmin.
//
// The tiering composes without double-charging: a WAN fetch lands a
// partition in the *region* store only, so the regional fleet (which
// prices its own site-local stores against its own catalog) never
// re-bills the same transfer; a partition published inside a region
// reaches both that fleet's site store (fleet publishOutputs) and the
// region store (publishData), so a later serve pays neither fabric.

// ensureData stages every known read region r's store is missing,
// WAN-fetching one after another from at, and returns the total modelled
// stall. A partitioned region skips the fetch (the serve proceeds on what
// it holds, the modelled behaviour of a region cut off from the
// federation). With prefetch set the fetch is control-plane traffic:
// accounted, but off any workflow's critical path.
func (f *Federation) ensureData(r *region, known []dataset.Part, at float64, prefetch bool) float64 {
	seconds, _ := r.dstore.Stage(known, at, "(fetch)", r.dataLink, func(x dataset.Fetch) {
		if !x.Shipped {
			r.stats.PartitionSkips++
			return
		}
		kind := EventDataFetch
		if prefetch {
			kind = EventDataPrefetch
			r.stats.DataPrefetches++
		} else {
			r.stats.DataFetches++
			r.stats.DataFetchSeconds += x.Seconds
			r.stats.DataFetchedBytes += x.Part.Ref.Bytes
		}
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: kind, Region: r.name, Time: x.At,
				Detail: fmt.Sprintf("%v %dB wan=%.4gs", x.Part.ID.Value(), x.Part.Ref.Bytes, x.Seconds)})
		}
	})
	return seconds
}

// publishData admits a completed workflow's output partitions into the
// serving region's store and the federation catalog — the cross-region
// sharing step, free like every publish (the data was produced here).
// Callers hold f.mu.
func (f *Federation) publishData(r *region, w *runtime.Workflow, name string, completion float64) {
	for _, o := range w.Outputs() {
		r.dstore.Publish(dataset.Version{
			Ref: o.Ref, ID: o.ID, Time: completion, Workflow: name, Task: o.Task,
		})
		r.stats.DataPublished++
		f.dataCat.Add(o.ID)
	}
}
