package fleet

import (
	"fmt"

	"everest/internal/dataset"
	"everest/internal/runtime"
)

// This file is the fleet's named data plane. Alongside the bitstream
// cache, each site keeps a bounded LRU dataset store
// (dataset.Store) of partitions it has ingested or produced. The router
// prices data locality from it — a site already holding a task's input
// partitions charges zero fetch, any other site charges the
// registry-fabric transfer of the missing ones — so compute moves to the
// data instead of the data being re-shipped. Completed workflows publish
// their output datasets back to the store, which is what lets ensemble
// members share assimilation output and traffic windows share map-match
// state across workflows.
//
// Only data *known to the federation* (placed via PlaceDataset or
// published by a completed workflow) is priced and fetched. An external
// ref no site holds is source data arriving from outside: it costs the
// same wherever the workflow lands, so it adds a constant to every
// candidate and is dropped from the argmin — which keeps workloads that
// name their sources but never share them priced exactly like the
// anonymous-bytes path.

// DatasetReads lists the workflow's external dataset reads: partitions
// read by some task but written by none (intra-workflow intermediates
// are already priced by the engine's transfer model). Order is first-use,
// deduplicated. The region tier prices WAN staging off this set.
func DatasetReads(w *runtime.Workflow) []dataset.Ref { return datasetReads(w) }

// datasetReads collects external reads with the same linear-scan dedup as
// bitstreamNeeds: workflows read a handful of partitions, and legacy
// workflows (no refs anywhere) must allocate nothing.
func datasetReads(w *runtime.Workflow) []dataset.Ref {
	var writes []dataset.Key
	w.Range(func(t *runtime.TaskSpec) bool {
		for _, r := range t.Writes {
			writes = append(writes, r.Key())
		}
		return true
	})
	var out []dataset.Ref
	w.Range(func(t *runtime.TaskSpec) bool {
	reads:
		for _, r := range t.Reads {
			k := r.Key()
			for _, wk := range writes {
				if wk == k {
					continue reads
				}
			}
			for _, o := range out {
				if o.Key() == k {
					continue reads
				}
			}
			out = append(out, r)
		}
		return true
	})
	return out
}

// knownReads filters reads down to partitions the federation holds
// somewhere (placed or published). Returns nil when none are known, so
// legacy submissions stay allocation-free past this point.
func (f *Fleet) knownReads(reads []dataset.Ref) []dataset.Ref {
	if len(reads) == 0 {
		return nil
	}
	var out []dataset.Ref
	for _, r := range reads {
		if f.catalog[r.Key()] {
			out = append(out, r)
		}
	}
	return out
}

// PlaceDataset seeds partitions into site i's dataset store at modelled
// time at — the ingest step a scenario runs before serving (scattering
// k-means point partitions across the fleet, staging a shared feature
// table). Placement is free: the data is assumed to land through the
// ingest plane, not the serving queue. The partitions become known to the
// federation, so routing prices their locality from then on.
func (f *Fleet) PlaceDataset(i int, at float64, refs ...dataset.Ref) error {
	if i < 0 || i >= len(f.sites) {
		return fmt.Errorf("fleet: site %d outside [0, %d)", i, len(f.sites))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.sites[i]
	for _, r := range refs {
		s.evicted = s.dstore.Publish(dataset.Version{
			Ref: r, Time: at, Workflow: "(placed)", Task: "(placed)",
		}, s.evicted[:0])
		s.stats.DatasetPublished++
		s.stats.DatasetPublishedBytes += r.Bytes
		s.stats.DatasetEvictions += len(s.evicted)
		f.catalog[r.Key()] = true
	}
	return nil
}

// DatasetResident reports whether site i currently holds the partition
// (tests and scenario assertions; does not perturb LRU order).
func (f *Fleet) DatasetResident(i int, r dataset.Ref) bool {
	if i < 0 || i >= len(f.sites) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sites[i].dstore.Holds(r)
}

// fetchData stages the workflow's known reads (w.reads, the set Submit
// filtered through the catalog) that the site does not hold, charging the
// registry-fabric transfer for each and admitting the fetched copies into
// the site store. Returns the modelled fetch stall and the shipped bytes.
// Resident partitions cost nothing — that is the locality win the router
// priced.
func (f *Fleet) fetchData(s *site, w work, at float64) (float64, int64) {
	if len(w.reads) == 0 {
		return 0, 0
	}
	total, shipped := 0.0, int64(0)
	for _, r := range w.reads {
		if s.dstore.Contains(r) {
			s.stats.DatasetHits++
			continue
		}
		s.stats.DatasetMisses++
		dt := f.cfg.RegistryNet.SendSeconds(r.Bytes)
		s.evicted = s.dstore.Publish(dataset.Version{
			Ref: r, Time: at + total, Workflow: w.t.Name, Task: "(fetch)",
		}, s.evicted[:0])
		s.stats.DatasetFetches++
		s.stats.DatasetFetchedBytes += r.Bytes
		s.stats.DatasetFetchSeconds += dt
		s.stats.DatasetEvictions += len(s.evicted)
		shipped += r.Bytes
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventDataFetch, Site: s.name, Tenant: w.t.Tenant,
				Workflow: w.t.Name, Time: at + total,
				Detail: fmt.Sprintf("%v %dB in %.4gs", r.Key(), r.Bytes, dt)})
			f.traceEvicted(s, s.evicted, at+total)
		}
		total += dt
	}
	return total, shipped
}

// publishOutputs admits every task's Writes into the site store at the
// workflow's completion time — the cross-workflow sharing step. The
// publish is free (the data was just produced on this site); the lineage
// version records (completion, workflow, task) so concurrent publishers
// of the same name resolve by the standard tie-break.
func (f *Fleet) publishOutputs(s *site, w work, completion float64) {
	w.wf.Range(func(t *runtime.TaskSpec) bool {
		for _, r := range t.Writes {
			s.evicted = s.dstore.Publish(dataset.Version{
				Ref: r, Time: completion, Workflow: w.t.Name, Task: t.Name,
			}, s.evicted[:0])
			s.stats.DatasetPublished++
			s.stats.DatasetPublishedBytes += r.Bytes
			s.stats.DatasetEvictions += len(s.evicted)
			f.catalog[r.Key()] = true
			if f.cfg.Trace != nil {
				f.trace(Event{Kind: EventDataPublish, Site: s.name,
					Tenant: w.t.Tenant, Workflow: w.t.Name, Time: completion,
					Detail: fmt.Sprintf("%v %dB by %s", r.Key(), r.Bytes, t.Name)})
				f.traceEvicted(s, s.evicted, completion)
			}
		}
		return true
	})
}

// traceEvicted emits one EventDataEvict per partition the store dropped.
func (f *Fleet) traceEvicted(s *site, evicted []dataset.Version, at float64) {
	for _, ev := range evicted {
		f.trace(Event{Kind: EventDataEvict, Site: s.name, Time: at, Detail: ev.Ref.Key().String()})
	}
}

// fetchBound prices the worst-case data staging of a workflow's known
// reads: every partition fetched individually over the registry fabric,
// which dominates any subset the serve path actually ships (per-fetch
// pricing pays the fabric latency per partition, residency only removes
// terms, and serve fetches exactly the known reads this bound covers).
// Guaranteed-class admission adds this to the workflow's own worst case,
// so a proven deadline survives a completely cold dataset store.
func (f *Fleet) fetchBound(reads []dataset.Ref) float64 {
	total := 0.0
	for _, r := range reads {
		total += f.cfg.RegistryNet.SendSeconds(r.Bytes)
	}
	return total
}
