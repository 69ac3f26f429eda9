package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"everest/internal/fleet"
	"everest/internal/platform"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/variants"
)

// fleet-churn is the E-fleet mix at fleet scale: compiled windpower
// workflows, hand-declared FPGA work on two bitstreams that churn a
// one-slot cache, and pure software, from 32 tenants over 4 sites of 2
// nodes, with every 8th submission asking for a proven 4 s bound and a
// seeded script of unplug/plug and slowdown faults.
const (
	fcSites           = 4
	fcNodes           = 2
	fcTenants         = 32
	fcGuaranteedEvery = 8
	fcDeadline        = 4.0
	fcMaxQueue        = 4.0
	fcMaxSlowdown     = 3.0
	fcOps             = 10000
	fcTinyOps         = 2000
)

type fleetChurn struct {
	seed uint64
	ops  int

	c *variants.Compiled
	// templates[class*3+weight] is one of the mix's twelve workflow
	// shapes; a workflow is immutable once built and the engine copies its
	// specs, so each is built once and resubmitted.
	templates []*runtime.Workflow
	tenants   []string
}

func newFleetChurn(seed uint64, tiny bool) workload {
	w := &fleetChurn{seed: seed, ops: fcOps}
	if tiny {
		w.ops = fcTinyOps
	}
	for j := 0; j < fcTenants; j++ {
		w.tenants = append(w.tenants, fmt.Sprintf("tenant%02d", j))
	}
	return w
}

func (w *fleetChurn) build(tr *tracer) (time.Duration, int, error) {
	tr.begin("variants.compile", -1)
	t0 := time.Now()
	c, err := variants.CompileExample("windpower", sdk.DefaultCompileOptions())
	compile := time.Since(t0)
	tr.end()
	if err != nil {
		return 0, 0, err
	}
	w.c = c
	w.templates = w.templates[:0]
	for class := 0; class < 4; class++ {
		for weight := 0; weight < 3; weight++ {
			w.templates = append(w.templates, w.workflow(class, weight))
		}
	}
	srv, err := w.server(nil, nil)
	if err != nil {
		return 0, 0, err
	}
	srv.Shutdown()
	return compile, 1, nil
}

// workflow builds one shape of the mix; weight scales its software
// stages.
func (w *fleetChurn) workflow(class, weight int) *runtime.Workflow {
	switch class {
	case 0:
		wf := sdk.CompiledWorkflow(weight, w.c)
		wf.SetVariants(w.c.Variants())
		return wf
	case 1:
		return sdk.AdaptiveWorkflow(weight, sdk.ScenarioBitstream().ID)
	case 2:
		return sdk.SyntheticWorkflow(weight)
	default:
		return sdk.AdaptiveWorkflow(weight, w.c.Design.Bitstream.ID)
	}
}

// server builds, stocks and starts one federation.
func (w *fleetChurn) server(faults [][]runtime.EnvEvent, tr *tracer) (*sdk.FleetServer, error) {
	cfg := sdk.FleetConfig{
		Sites: fcSites, NodesPerSite: fcNodes, CacheSlots: 1,
		Adaptive:        true,
		MaxQueueSeconds: fcMaxQueue,
		RegistryNet:     "tcp10g",
		SiteEvents:      faults,
	}
	if fh, eh := tr.hook(hookFleet), tr.hook(hookRuntime); fh != nil {
		cfg.Trace = func(fleet.Event) { fh() }
		cfg.EngineTrace = func(string, runtime.Event) { eh() }
	}
	srv, err := sdk.NewFleetServer(cfg)
	if err != nil {
		return nil, err
	}
	for _, bs := range []platform.Bitstream{w.c.Design.Bitstream, sdk.ScenarioBitstream()} {
		if err := srv.Publish(bs); err != nil {
			return nil, err
		}
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// fleetInputs is one episode's draws, independent of the offered rate.
type fleetInputs struct {
	gaps     []float64 // unit-rate exponential interarrivals
	tenant   []int
	template []int
	faults   []fault
}

// fault is one scripted condition window, placed by op index so every
// ladder rung sees it at the same point of the stream.
type fault struct {
	site, node  int
	from, until int // op indices
	slowdown    bool
	factor      float64
}

func (w *fleetChurn) inputs(k int) fleetInputs {
	rng := episodeRNG(w.seed, k)
	in := fleetInputs{
		gaps:     make([]float64, w.ops),
		tenant:   make([]int, w.ops),
		template: make([]int, w.ops),
	}
	for i := range in.gaps {
		in.gaps[i] = rng.ExpFloat64()
		in.tenant[i] = rng.IntN(fcTenants)
		in.template[i] = rng.IntN(len(w.templates))
	}
	// Each node of each site alternates healthy stretches of 800-2400 ops
	// with fault windows of 20-60 ops: its accelerator unplugged, or its
	// CPU slowed by up to fcMaxSlowdown (inside the fleet's SlowdownCap
	// contract, so guaranteed bounds must survive it). Heavier scripts
	// pull the fleet's capacity below the nominal rate; fewer, longer
	// windows make the tail hinge on a few unlucky overlaps, so that it
	// differs from seed to seed more than from commit to commit.
	for site := 0; site < fcSites; site++ {
		for node := 0; node < fcNodes; node++ {
			for _, slow := range []bool{false, true} {
				at := 0
				for {
					at += 800 + rng.IntN(1601)
					dur := 20 + rng.IntN(41)
					if at+dur >= w.ops {
						break
					}
					f := fault{site: site, node: node, from: at, until: at + dur, slowdown: slow}
					if slow {
						f.factor = 1 + (fcMaxSlowdown-1)*rng.Float64()
					}
					in.faults = append(in.faults, f)
					at += dur
				}
			}
		}
	}
	return in
}

// script turns the fault windows into per-site engine events at the
// arrival times of their op indices.
func script(faults []fault, arrival []float64) [][]runtime.EnvEvent {
	out := make([][]runtime.EnvEvent, fcSites)
	for _, f := range faults {
		node := fmt.Sprintf("node%02d", f.node)
		from, until := arrival[f.from], arrival[f.until]
		if f.slowdown {
			out[f.site] = append(out[f.site],
				runtime.EnvEvent{Kind: runtime.EnvSlowdown, Node: node, Factor: f.factor, At: from},
				runtime.EnvEvent{Kind: runtime.EnvSlowdown, Node: node, Factor: 1, At: until})
		} else {
			out[f.site] = append(out[f.site],
				runtime.EnvEvent{Kind: runtime.EnvUnplug, Node: node, At: from},
				runtime.EnvEvent{Kind: runtime.EnvPlug, Node: node, At: until})
		}
	}
	for _, evs := range out {
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].At < evs[b].At })
	}
	return out
}

func (w *fleetChurn) episode(k int, rate float64, rec *record, tr *tracer, m *meter) error {
	in := w.inputs(k)
	arrival := make([]float64, w.ops)
	t := 0.0
	for i, g := range in.gaps {
		t += g / rate
		arrival[i] = t
	}
	srv, err := w.server(script(in.faults, arrival), tr)
	if err != nil {
		return err
	}
	outs := make([]fleetOutcome, w.ops)
	var admitted, refused int

	m.start()
	tr.begin("episode", -1)
	for i := range outs {
		tr.begin("op", int64(i))
		tenant, wf := w.tenants[in.tenant[i]], w.templates[in.template[i]]
		var tk *fleet.Ticket
		var err error
		if i%fcGuaranteedEvery == 0 {
			tr.begin("fleet.submit", -1)
			tk, err = srv.SubmitGuaranteedAt(tenant, "", wf, arrival[i], fcDeadline)
			tr.end()
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, fleet.ErrSaturated):
				refused++ // no site can prove the bound: degrade to best effort
				err = nil
			}
		}
		if tk == nil && err == nil {
			tr.begin("fleet.submit", -1)
			tk, err = srv.SubmitAt(tenant, "", wf, arrival[i])
			tr.end()
		}
		switch {
		case errors.Is(err, fleet.ErrSaturated):
			outs[i].status = opRejected
		case err != nil:
			srv.Shutdown()
			return fmt.Errorf("fleet-churn op %d: %w", i, err)
		default:
			tr.begin("runtime.wait", -1)
			res, werr := tk.Wait()
			tr.end()
			outs[i].res = res
			if werr != nil {
				outs[i].status = opFailed
			}
		}
		tr.end()
	}
	st := srv.Shutdown()
	tr.end()
	m.stop(int64(len(outs)))

	d := newDigest()
	foldFleet(rec, d, outs, st.Fleet)
	if n := st.Fleet.DatasetHits() + st.Fleet.DatasetFetches() + st.Fleet.DatasetPublished(); n != 0 {
		rec.fail("fleet-churn names no datasets, yet the fleet counted %d dataset operations", n)
	}
	rejected := 0
	for _, o := range outs {
		if o.status == opRejected {
			rejected++
		}
	}
	if st.Fleet.Rejected != rejected+refused {
		rec.fail("fleet counts %d rejections, the load generator saw %d rejected and %d guarantees refused",
			st.Fleet.Rejected, rejected, refused)
	}
	rec.count("guaranteed.admitted", float64(admitted))
	rec.count("guaranteed.refused", float64(refused))
	d.i(int64(admitted))
	d.i(int64(refused))
	rec.digests = append(rec.digests, d.sum())
	return nil
}
