package fleet

import (
	"fmt"

	"everest/internal/dataset"
	"everest/internal/runtime"
)

// This file is the fleet's named data plane. Alongside its resident
// bitstreams, each site keeps a bounded LRU dataset store
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
//
// Partitions are interned where they enter (Workflow.Submit resolves a
// workflow's reads and outputs, PlaceDataset its placed refs), so the
// stores and the catalog key by dataset.ID and serving hashes no names.

// PlaceDataset seeds partitions into site i's dataset store at modelled
// time at — the ingest step a scenario runs before serving (scattering
// k-means point partitions across the fleet, staging a shared feature
// table). Placement is free: the data is assumed to land through the
// ingest plane, not the serving queue. The partitions become known to the
// federation, so routing prices their locality from then on. After
// Shutdown it returns runtime.ErrShutDown.
func (f *Fleet) PlaceDataset(i int, at float64, refs ...dataset.Ref) error {
	if i < 0 || i >= len(f.sites) {
		return fmt.Errorf("fleet: site %d outside [0, %d)", i, len(f.sites))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.life.Check(runtime.Control); err != nil {
		return err
	}
	s := f.sites[i]
	for _, r := range refs {
		p := dataset.Intern(r)
		evicted := s.dstore.Publish(dataset.Version{
			Ref: r, ID: p.ID, Time: at, Workflow: "(placed)", Task: "(placed)",
		})
		s.stats.DatasetPublished++
		s.stats.DatasetPublishedBytes += r.Bytes
		f.catalog.Add(p.ID)
		if f.cfg.Trace != nil {
			f.traceEvicted(s, evicted, at)
		}
	}
	return nil
}

// fetchData stages the workflow's known reads (w.reads, the set Submit
// filtered through the catalog) that the site does not hold over the
// registry fabric, one after another, admitting the fetched copies into
// the site store. Returns the modelled fetch stall and the shipped bytes.
// Resident partitions cost nothing — that is the locality win the router
// priced.
func (f *Fleet) fetchData(s *site, w *work, at float64) (float64, int64) {
	return s.dstore.Stage(w.reads, at, w.name, f.registryLink, func(x dataset.Fetch) {
		s.stats.DatasetFetches++
		s.stats.DatasetFetchedBytes += x.Part.Ref.Bytes
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventDataFetch, Site: s.name, Tenant: w.tenant,
				Workflow: w.name, Time: x.At,
				Detail: fmt.Sprintf("%v %dB in %.4gs", x.Part.ID.Value(), x.Part.Ref.Bytes, x.Seconds)})
			f.traceEvicted(s, x.Evicted, x.At)
		}
	})
}

// publishOutputs admits every task's Writes into the site store at the
// workflow's completion time — the cross-workflow sharing step. The
// publish is free (the data was just produced on this site); the lineage
// version records (completion, workflow, task) so concurrent publishers
// of the same name resolve by the standard tie-break.
func (f *Fleet) publishOutputs(s *site, w *work, completion float64) {
	for _, o := range w.wf.Outputs() {
		evicted := s.dstore.Publish(dataset.Version{
			Ref: o.Ref, ID: o.ID, Time: completion, Workflow: w.name, Task: o.Task,
		})
		s.stats.DatasetPublished++
		s.stats.DatasetPublishedBytes += o.Ref.Bytes
		f.catalog.Add(o.ID)
		if f.cfg.Trace != nil {
			f.trace(Event{Kind: EventDataPublish, Site: s.name,
				Tenant: w.tenant, Workflow: w.name, Time: completion,
				Detail: fmt.Sprintf("%v %dB by %s", o.ID.Value(), o.Ref.Bytes, o.Task)})
			f.traceEvicted(s, evicted, completion)
		}
	}
}

// traceEvicted emits one EventDataEvict per partition the store dropped.
func (f *Fleet) traceEvicted(s *site, evicted []dataset.Version, at float64) {
	for _, ev := range evicted {
		f.trace(Event{Kind: EventDataEvict, Site: s.name, Time: at, Detail: ev.ID.Value().String()})
	}
}
