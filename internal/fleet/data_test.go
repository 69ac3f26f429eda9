package fleet

import (
	"bytes"
	"errors"
	"fmt"
	gort "runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"everest/internal/dataset"
	"everest/internal/netsim"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// resident reports whether site i's store holds the partition.
func resident(f *Fleet, i int, r dataset.Ref) bool {
	return f.sites[i].dstore.Holds(dataset.Intern(r).ID)
}

// partitions returns n partitions of name, each of the given size.
func partitions(name string, bytes int64, n int) []dataset.Ref {
	refs := make([]dataset.Ref, n)
	for i := range refs {
		refs[i] = dataset.Ref{Name: name, Partition: i, Bytes: bytes}
	}
	return refs
}

// dataWorkflow is a single software task reading the given partitions and
// writing the given outputs.
func dataWorkflow(reads, writes []dataset.Ref) *runtime.Workflow {
	w := runtime.NewWorkflow()
	if err := w.Submit(runtime.TaskSpec{
		Name: "stage", Flops: 1e9, Reads: reads, Writes: writes,
	}); err != nil {
		panic(err)
	}
	return w
}

// bigRef is a partition large enough that its registry-fabric transfer
// dominates the router's tenant-affinity nudge.
func bigRef(name string, p int) dataset.Ref {
	return dataset.Ref{Name: name, Partition: p, Bytes: 1 << 30}
}

func TestDatasetLocalityRouting(t *testing.T) {
	f := newTestFleet(t, platform.NewRegistry(), Config{Sites: 3, DatasetStoreBytes: -1})
	defer f.Shutdown()
	ref := bigRef("pts", 0)
	if err := f.PlaceDataset(2, 0, ref); err != nil {
		t.Fatal(err)
	}
	tk, err := f.Submit(Request{Tenant: "t0", Workflow: dataWorkflow([]dataset.Ref{ref}, nil), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Site != "site02" {
		t.Fatalf("routed to %s, want site02 (the partition's home)", res.Site)
	}
	if res.Fetch != 0 || res.FetchedBytes != 0 {
		t.Fatalf("home-site serve paid fetch %g/%dB, want none", res.Fetch, res.FetchedBytes)
	}
	st := f.Stats()
	if st.DatasetFetchedBytes() != 0 {
		t.Fatalf("fleet shipped %dB, want 0", st.DatasetFetchedBytes())
	}
}

func TestPlacementBlindFetches(t *testing.T) {
	wan, err := netsim.StackByName("wan1g")
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	f := newTestFleet(t, platform.NewRegistry(), Config{
		Sites: 3, PlacementBlind: true, RegistryNet: &wan, DatasetStoreBytes: -1,
		Trace: func(ev Event) { events = append(events, ev) },
	})
	defer f.Shutdown()
	ref := bigRef("pts", 0)
	if err := f.PlaceDataset(2, 0, ref); err != nil {
		t.Fatal(err)
	}
	tk, err := f.Submit(Request{Tenant: "t0", Workflow: dataWorkflow([]dataset.Ref{ref}, nil), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Site != "site00" {
		t.Fatalf("blind router sent the work to %s, want site00 (tie order)", res.Site)
	}
	want := wan.SendSeconds(ref.Bytes)
	if res.FetchedBytes != ref.Bytes || res.Fetch != want {
		t.Fatalf("fetch = %g/%dB, want %g/%dB", res.Fetch, res.FetchedBytes, want, ref.Bytes)
	}
	// The staged copy is admitted: the serving site now holds it too.
	if !resident(f, 0, ref) || !resident(f, 2, ref) {
		t.Fatal("fetched copy not resident at the serving site")
	}
	st := f.Stats()
	var fetches, misses int
	for _, s := range st.Sites {
		fetches += s.DatasetFetches
		misses += s.DatasetMisses
	}
	if fetches != 1 || misses != 1 || st.DatasetFetchedBytes() != ref.Bytes {
		t.Fatalf("fetches/misses/bytes = %d/%d/%d", fetches, misses, st.DatasetFetchedBytes())
	}
	found := false
	for _, ev := range events {
		if ev.Kind == EventDataFetch && ev.Site == "site00" {
			found = true
		}
	}
	if !found {
		t.Fatal("no EventDataFetch in the trace")
	}
}

func TestCrossWorkflowDatasetReuse(t *testing.T) {
	f := newTestFleet(t, platform.NewRegistry(), Config{Sites: 3, DatasetStoreBytes: -1})
	defer f.Shutdown()
	out := bigRef("features", 0)
	// Producer: an anonymous-input workflow publishing the feature table.
	tk, err := f.Submit(Request{Tenant: "producer", Workflow: dataWorkflow(nil, []dataset.Ref{out}), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	var home int
	if _, err := fmt.Sscanf(res.Site, "site%02d", &home); err != nil {
		t.Fatal(err)
	}
	if !resident(f, home, out) {
		t.Fatal("published output not resident at the producing site")
	}
	// Consumer from a different tenant: data gravity must pull it to the
	// producer's site, and the resident table is read in place.
	tk2, err := f.Submit(Request{Tenant: "consumer", Workflow: dataWorkflow([]dataset.Ref{out}, nil), Arrival: res.Completion})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tk2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Site != res.Site {
		t.Fatalf("consumer routed to %s, want the producer's %s", res2.Site, res.Site)
	}
	if res2.FetchedBytes != 0 {
		t.Fatalf("consumer shipped %dB for a resident table", res2.FetchedBytes)
	}
}

// TestUnknownReadsStayFree pins the known-to-catalog rule: a ref nobody
// placed or published is external source data — it steers nothing, costs
// nothing, and is never probed or fetched.
func TestUnknownReadsStayFree(t *testing.T) {
	f := newTestFleet(t, platform.NewRegistry(), Config{Sites: 2})
	defer f.Shutdown()
	ref := bigRef("external/source", 0)
	tk, err := f.Submit(Request{Tenant: "t0", Workflow: dataWorkflow([]dataset.Ref{ref}, nil), Arrival: 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fetch != 0 || res.FetchedBytes != 0 {
		t.Fatalf("unknown read was fetched: %g/%dB", res.Fetch, res.FetchedBytes)
	}
	st := f.Stats()
	for _, s := range st.Sites {
		if s.DatasetHits != 0 || s.DatasetMisses != 0 {
			t.Fatalf("unknown read was probed: %+v", s)
		}
	}
}

// TestGuaranteedFetchBound pins the admission debt of known reads: the
// proven bound must cover a completely cold dataset store even when the
// serve-time fetch turns out free, and a deadline under that worst case
// must be refused.
func TestGuaranteedFetchBound(t *testing.T) {
	wan, err := netsim.StackByName("wan1g")
	if err != nil {
		t.Fatal(err)
	}
	reg := platform.NewRegistry()
	f := newTestFleet(t, reg, Config{Sites: 1, RegistryNet: &wan, DatasetStoreBytes: -1})
	defer f.Shutdown()
	ref := bigRef("pts", 0)
	if err := f.PlaceDataset(0, 0, ref); err != nil {
		t.Fatal(err)
	}
	fetchWorst := wan.SendSeconds(ref.Bytes)
	tk, err := f.Submit(Request{Tenant: "t0", Workflow: dataWorkflow([]dataset.Ref{ref}, nil),
		Arrival: 0, Guaranteed: true, Deadline: fetchWorst + 3600})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound < fetchWorst {
		t.Fatalf("bound %g does not cover the cold-store fetch %g", res.Bound, fetchWorst)
	}
	if res.Fetch != 0 {
		t.Fatalf("resident partition paid a fetch stall %g", res.Fetch)
	}
	// A deadline below the data-staging worst case is unprovable.
	if _, err := f.Submit(Request{Tenant: "t0", Workflow: dataWorkflow([]dataset.Ref{ref}, nil),
		Arrival: res.Completion, Guaranteed: true, Deadline: fetchWorst / 2}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("deadline under fetch bound admitted (err=%v)", err)
	}
}

// TestSiteCostSingleDeployCharge is the PR-10 audit regression: a site
// that misses the cache AND has no online device to host the bitstream
// must be priced exactly one fallback penalty — the deploy-estimate and
// fallback arms of siteCost are alternatives, never additive. The audit
// found no double-count on any estimate call site;
// this pins that invariant.
func TestSiteCostSingleDeployCharge(t *testing.T) {
	reg := platform.NewRegistry()
	bs := testBitstream("bs-audit")
	if err := reg.Put(bs); err != nil {
		t.Fatal(err)
	}
	f := newTestFleet(t, reg, Config{Sites: 1, SiteEvents: [][]runtime.EnvEvent{{
		{Kind: runtime.EnvUnplug, Node: "node00", Device: 0, At: 0},
		{Kind: runtime.EnvUnplug, Node: "node01", Device: 0, At: 0},
	}}})
	defer f.Shutdown()
	s := f.sites[0]
	cost, ok := f.siteCost(0, s, 0, false, needParts(bs.ID), nil, 0.5)
	if !ok {
		t.Fatal("site not a candidate")
	}
	// wait 0 (idle) + affinity (no last site) + exactly one fallback.
	affinity, fallback := affinitySeconds, fallbackSeconds
	want := affinity + fallback
	if cost != want {
		t.Fatalf("cost = %g, want exactly %g (affinity + one fallback, no double charge)", cost, want)
	}
	// With the device online, the same probe prices exactly one deploy
	// estimate instead — again no stacking of the two arms.
	f2 := newTestFleet(t, reg, Config{Sites: 1})
	defer f2.Shutdown()
	s2 := f2.sites[0]
	est := f2.estimateDeploy(s2, needParts(bs.ID)[0], 0.5)
	if est <= 0 || est == fallbackSeconds {
		t.Fatalf("deploy estimate = %g, want a cold deploy", est)
	}
	cost2, ok := f2.siteCost(0, s2, 0, false, needParts(bs.ID), nil, 0.5)
	if !ok {
		t.Fatal("site 2 not a candidate")
	}
	if want2 := affinity + est; cost2 != want2 {
		t.Fatalf("cost = %g, want exactly %g (affinity + one deploy estimate)", cost2, want2)
	}
}

// sitePrice is the router's price of one site for one workflow, term by
// term: the functions siteCost sums, called as it calls them.
type sitePrice struct {
	ok      bool      // the site is a candidate
	wait    float64   // site.start past the arrival
	deploys []float64 // estimateDeploy per need
	fetch   float64   // dataset store Estimate of the known reads
	held    []bool    // per known read: resident when priced
}

// priceSite prices site idx term by term and fails t unless siteCost is
// exactly those terms plus the router-only affinity penalty, summed in
// siteCost's order.
func priceSite(t *testing.T, f *Fleet, idx int, tenant string, needs, reads []dataset.Part, arrival float64) sitePrice {
	s := f.sites[idx]
	last, hasLast := f.lastSite[tenant]
	cost, ok := f.siteCost(idx, s, last, hasLast, needs, reads, arrival)
	p := sitePrice{ok: ok}
	if !ok {
		return p
	}
	at := s.start(arrival)
	p.wait = at - arrival
	for _, n := range needs {
		p.deploys = append(p.deploys, f.estimateDeploy(s, n, at))
	}
	p.fetch = s.dstore.Estimate(reads, at, f.registryLink)
	for _, r := range reads {
		p.held = append(p.held, s.dstore.Holds(r.ID))
	}
	sum := p.wait
	for _, d := range p.deploys {
		sum += d
	}
	if !hasLast || last != idx {
		sum += affinitySeconds
	}
	if sum += p.fetch; sum != cost {
		t.Fatalf("%s: siteCost %g, its terms sum to %g", s.name, cost, sum)
	}
	return p
}

// churnFleet is a one-slot fleet of three sites, two single-Alveo nodes
// each, whose devices are unplugged and plugged back on a per-site script
// (both at once for a while, so some workflows fall back to software).
// Its requests are single-bitstream workflows over four kernels from
// three tenants, arriving faster than a site serves them.
func churnFleet(trace func(Event)) (*Fleet, func(int) Request, error) {
	reg := platform.NewRegistry()
	ids := []string{"k0", "k1", "k2", "k3"}
	for _, id := range ids {
		if err := reg.Put(testBitstream(id)); err != nil {
			return nil, nil, err
		}
	}
	var events [][]runtime.EnvEvent
	for s := range 3 {
		off := 0.2 * float64(s)
		events = append(events, []runtime.EnvEvent{
			{Kind: runtime.EnvUnplug, Node: "node00", Device: 0, At: 0.3 + off},
			{Kind: runtime.EnvUnplug, Node: "node01", Device: 0, At: 0.5 + off},
			{Kind: runtime.EnvPlug, Node: "node00", Device: 0, At: 0.8 + off},
			{Kind: runtime.EnvPlug, Node: "node01", Device: 0, At: 1.1 + off},
		})
	}
	f, err := New(reg, Config{Sites: 3, NewCluster: testCluster(2), CacheSlots: 1,
		SiteEvents: events, Trace: trace})
	if err != nil {
		return nil, nil, err
	}
	if err := f.Start(); err != nil {
		return nil, nil, err
	}
	return f, func(i int) Request {
		return Request{Tenant: fmt.Sprintf("t%d", i%3), Workflow: fpgaWorkflow(ids[(i*7/3)%len(ids)]),
			Arrival: 0.01 * float64(i)}
	}, nil
}

// billCounts tallies one priceBill run: how many workflows waited,
// deployed, fell back and fetched, and how many showed each known gap
// between the router's price and serving's bill.
type billCounts struct {
	waited, deployed, fallbacks, fetched int
	// selfEvicted counts workflows that re-shipped a read their own
	// staging evicted after the router priced it resident.
	selfEvicted int
	// deployGap counts workflows billed a deploy other than the one the
	// router priced (DESIGN §10, ROADMAP item 6).
	deployGap int
}

// priceBill serves n requests from the fixture one at a time, pricing
// every site term by term before each Submit (priceSite), and compares
// the chosen site's price with what serving billed (Result.Wait, Deploy
// and Fetch). The wait always matches, and so does the fetch, except on
// a workflow counted in selfEvicted; every fetch the router priced must
// still be billed. A fallback must have been priced at fallbackSeconds
// and billed 0 deploy seconds. A deploy mismatch is counted in
// deployGap. Unnamed requests are named wf000, wf001, ...
func priceBill(t *testing.T, build func(trace func(Event)) (*Fleet, func(int) Request, error), n int) billCounts {
	t.Helper()
	fellBack := map[string]bool{} // workflow + "/" + bitstream
	shipped := map[string]bool{}  // workflow + "/" + partition key
	f, next, err := build(func(ev Event) {
		switch ev.Kind {
		case EventFallback:
			fellBack[ev.Workflow+"/"+ev.Bitstream] = true
		case EventDataFetch:
			shipped[ev.Workflow+"/"+strings.Fields(ev.Detail)[0]] = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	var c billCounts
	for i := range n {
		req := next(i)
		if req.Name == "" {
			req.Name = fmt.Sprintf("wf%03d", i)
		}
		needs, reads := req.Workflow.Needs(), f.catalog.Known(req.Workflow.Reads())
		prices := make([]sitePrice, f.Sites())
		for k := range prices {
			prices[k] = priceSite(t, f, k, req.Tenant, needs, reads, req.Arrival)
		}
		tk, err := f.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		k := slices.IndexFunc(f.sites, func(s *site) bool { return s.name == res.Site })
		p := prices[k]
		if !p.ok {
			t.Fatalf("%s: routed to %s, which the router priced as no candidate", req.Name, res.Site)
		}
		deploy := 0.0
		for j, est := range p.deploys {
			if fellBack[req.Name+"/"+needs[j].Ref.Name] {
				if est != fallbackSeconds {
					t.Fatalf("%s: %s fell back on %s, priced %g, want fallbackSeconds",
						req.Name, needs[j].Ref.Name, res.Site, est)
				}
				c.fallbacks++
				continue
			}
			deploy += est
		}
		// The bill is the price plus, in read order, every priced-resident
		// read the same staging shipped again.
		fetch, gap := 0.0, false
		for j, r := range reads {
			ship := shipped[req.Name+"/"+r.Ref.Key().String()]
			if !p.held[j] && !ship {
				t.Fatalf("%s: priced a fetch of %v on %s that serving never made", req.Name, r.Ref, res.Site)
			}
			if ship {
				gap = gap || p.held[j]
				dt, _ := f.registryLink(r, 0)
				fetch += dt
			}
		}
		if gap {
			c.selfEvicted++
		} else if fetch != p.fetch {
			t.Fatalf("%s: the fetches priced on %s sum to %g, the router's term is %g", req.Name, res.Site, fetch, p.fetch)
		}
		if p.wait != res.Wait || fetch != res.Fetch {
			t.Fatalf("%s on %s: priced wait %g fetch %g, billed %g %g",
				req.Name, res.Site, p.wait, p.fetch, res.Wait, res.Fetch)
		}
		if deploy != res.Deploy {
			c.deployGap++
		}
		if res.Wait > 0 {
			c.waited++
		}
		if res.Deploy > 0 {
			c.deployed++
		}
		if res.Fetch > 0 {
			c.fetched++
		}
	}
	t.Logf("%d served: %d waited, %d deployed, %d fell back, %d fetched, %d self-evicted, %d deploy gaps",
		n, c.waited, c.deployed, c.fallbacks, c.fetched, c.selfEvicted, c.deployGap)
	return c
}

// TestPriceEqualsBill: for every best-effort workflow, the router's wait,
// deploy and fetch terms for the site it chose equal what serving billed
// (Result.Wait, Deploy and Fetch), and the site's cost is exactly those
// terms plus the router-only penalties: affinitySeconds, and
// fallbackSeconds for a bitstream the bill ran in software (at 0 deploy
// seconds). The fixtures are a one-slot fleet under unplug churn and the
// warm k-means data plane under store pressure.
//
// One gap is known and counted, not excused: a store too small for one
// workflow's reads evicts, while staging a missing partition, a read the
// router priced as resident, and Stage ships it again (Store.Estimate's
// doc, DESIGN §10). Every fetch the router priced must still be billed,
// and the workflows showing the gap must number exactly selfEvicted. The
// two deploy gaps are pinned by TestDeployGapsPinned.
func TestPriceEqualsBill(t *testing.T) {
	for _, tc := range []struct {
		name        string
		build       func(trace func(Event)) (*Fleet, func(int) Request, error)
		n           int
		selfEvicted int
	}{
		{"one-slot churn", churnFleet, 240, 0},
		{"kmeans map", func(trace func(Event)) (*Fleet, func(int) Request, error) {
			f, maps, err := kmeansMapFleet(trace)
			return f, func(i int) Request {
				return Request{Tenant: "job", Workflow: maps[i%len(maps)], Arrival: 0.0002 * float64(i)}
			}, err
		}, 256, 254},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := priceBill(t, tc.build, tc.n)
			if c.selfEvicted != tc.selfEvicted {
				t.Errorf("%d workflows re-shipped a read their own staging evicted, want %d", c.selfEvicted, tc.selfEvicted)
			}
			if c.deployGap != 0 {
				t.Errorf("%d workflows were billed a deploy other than the one priced, want 0", c.deployGap)
			}
			// The fixture must exercise every term it can: queueing everywhere,
			// deploys and fallbacks under churn, fetches on the data plane.
			if c.waited == 0 || (c.deployed == 0 || c.fallbacks == 0) && c.fetched == 0 {
				t.Fatalf("fixture too tame: %d waited, %d deployed, %d fell back, %d fetched",
					c.waited, c.deployed, c.fallbacks, c.fetched)
			}
		})
	}
}

// TestDataCountersMatchTrace: the dataset hit, miss and eviction
// counters are read from the site stores and the fetch counters are kept
// by hand, and both must agree with the trace on a data plane under store
// pressure: one EventDataEvict per eviction (placement, fetch and publish
// alike) and one EventDataFetch per fetch.
func TestDataCountersMatchTrace(t *testing.T) {
	counts := map[EventKind]int{}
	f, maps, err := kmeansMapFleet(func(ev Event) { counts[ev.Kind]++ })
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	step := mapDriver(f, maps)
	for range 4 * len(maps) {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	misses := 0
	for _, s := range st.Sites {
		misses += s.DatasetMisses
	}
	if st.DatasetEvictions() == 0 || st.DatasetFetches() == 0 || st.DatasetHits() == 0 {
		t.Fatalf("evictions %d, fetches %d, hits %d: want a data plane under pressure",
			st.DatasetEvictions(), st.DatasetFetches(), st.DatasetHits())
	}
	if counts[EventDataEvict] != st.DatasetEvictions() {
		t.Errorf("%d EventDataEvict events, DatasetEvictions = %d", counts[EventDataEvict], st.DatasetEvictions())
	}
	if counts[EventDataFetch] != st.DatasetFetches() {
		t.Errorf("%d EventDataFetch events, DatasetFetches = %d", counts[EventDataFetch], st.DatasetFetches())
	}
	// Every known read is probed once per serve: a miss is a fetch.
	if misses != st.DatasetFetches() {
		t.Errorf("DatasetMisses = %d, DatasetFetches = %d", misses, st.DatasetFetches())
	}
}

// TestLineageDeterminism: two concurrent workflows publish the same
// dataset name, and the resident version must resolve by the (time,
// workflow id, task) tie-break — with the full fleet trace byte-identical
// across GOMAXPROCS widths.
func TestLineageDeterminism(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		f := newTestFleet(t, platform.NewRegistry(), Config{Sites: 1,
			Trace: func(ev Event) {
				fmt.Fprintf(&buf, "%s %s %s %s %.9f %s\n", ev.Kind, ev.Site, ev.Tenant, ev.Workflow, ev.Time, ev.Detail)
			}})
		model := dataset.Single("shared/model", 1<<20)
		// Two same-arrival writers of the same name on one site: serve
		// order, completion times, and hence lineage are modelled-time
		// facts, not host-scheduling ones.
		var tks []*Ticket
		for _, name := range []string{"trainA", "trainB"} {
			tk, err := f.Submit(Request{Tenant: "t0", Name: name,
				Workflow: dataWorkflow(nil, []dataset.Ref{model}), Arrival: 0})
			if err != nil {
				t.Fatal(err)
			}
			tks = append(tks, tk)
		}
		for _, tk := range tks {
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		// The model is the store's only partition, so the least recently
		// used version is the resident one.
		f.mu.Lock()
		v, ok := f.sites[0].dstore.Oldest()
		f.mu.Unlock()
		if !ok || v.ID != dataset.Intern(model).ID {
			t.Fatal("model not resident")
		}
		// Both writers complete at the same modelled time, so the higher
		// workflow id (trainB) owns the name: the outcome is a pure
		// function of (time, workflow, task).
		if v.Workflow != "trainB" {
			t.Fatalf("resident version by %s, want trainB superseding trainA", v.Workflow)
		}
		fmt.Fprintf(&buf, "version %s %s %.9f\n", v.Workflow, v.Task, v.Time)
		f.Shutdown()
		return buf.Bytes()
	}
	ref := atGOMAXPROCS(1, run)
	for _, procs := range []int{4, 8} {
		if got := atGOMAXPROCS(procs, run); !bytes.Equal(ref, got) {
			t.Fatalf("lineage trace diverged at GOMAXPROCS=%d:\n--- 1\n%s\n--- %d\n%s", procs, ref, procs, got)
		}
	}
}

// atGOMAXPROCS runs fn with the scheduler width pinned to n.
func atGOMAXPROCS(n int, fn func() []byte) []byte {
	prev := gort.GOMAXPROCS(n)
	defer gort.GOMAXPROCS(prev)
	return fn()
}

// TestDatasetStoreBounded pins the LRU bound end to end: placements past
// the site's capacity evict the oldest partitions and the counters say so.
func TestDatasetStoreBounded(t *testing.T) {
	f := newTestFleet(t, platform.NewRegistry(), Config{Sites: 1, DatasetStoreBytes: 2 << 20})
	defer f.Shutdown()
	refs := partitions("pts", 1<<20, 3) // 3 MiB over a 2 MiB store
	for _, r := range refs {
		if err := f.PlaceDataset(0, 0, r); err != nil {
			t.Fatal(err)
		}
	}
	if resident(f, 0, refs[0]) {
		t.Fatal("oldest partition survived past the store bound")
	}
	if !resident(f, 0, refs[2]) {
		t.Fatal("newest partition missing")
	}
	st := f.Stats()
	if st.Sites[0].DatasetEvictions == 0 {
		t.Fatal("no evictions counted")
	}
}

// TestConcurrentFleetsInternAlike: partitions are interned in one
// process-wide table. Two goroutines each build the k-means map fixture
// — the same partition names, placed into their own fleet — and serve
// it; each fleet's results must equal a serial run's.
func TestConcurrentFleetsInternAlike(t *testing.T) {
	run := func() ([]string, error) {
		f, maps, err := kmeansMapFleet(nil)
		if err != nil {
			return nil, err
		}
		defer f.Shutdown()
		step := mapDriver(f, maps)
		var out []string
		for range 3 * len(maps) {
			res, err := step()
			if err != nil {
				return nil, err
			}
			out = append(out, fmt.Sprintf("%s wait=%x fetch=%x %dB service=%x done=%x",
				res.Site, res.Wait, res.Fetch, res.FetchedBytes, res.Service, res.Completion))
		}
		st := f.Stats()
		return append(out, fmt.Sprintf("fetched=%d published=%d evicted=%d",
			st.DatasetFetchedBytes(), st.DatasetPublished(), st.DatasetEvictions())), nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]string
	var errs [2]error
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = run()
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !slices.Equal(got[g], want) {
			t.Errorf("goroutine %d diverged from the serial run:\n got %v\nwant %v", g, got[g], want)
		}
	}
}
