// Command basecamp is the single point of access to the EVEREST SDK (paper
// §IV: "all tools within the SDK are wrapped under the basecamp command").
//
//	basecamp compile  -kernel <file.ekl|demo|windpower|airquality> [-lang ekl|cfdlang] [-backend vitis|bambu] [-format f32|f64|bf16|f16|fixed16|posit16] [-device alveo-u55c|alveo-u280|cloudfpga] [-memports N] [-emit mlir|olympus|driver|source]
//	                               # source-to-schedule: HLS report, derived operating points, tuner pick
//	basecamp deploy   -nodes N     # compile demo kernel, stage it, serve a workflow
//	basecamp serve    engine|fleet|suite|wcet|stream|region|kmeans [flags]
//	                               # one serving pass of a named scenario
//	basecamp bench    [E1..E14] [-list]
//	                               # the reproduction experiment tables
//	basecamp bench    fleet|suite|wcet|stream|region|kmeans|adapt|compiled [flags]
//	                               # reproduce one serving claim: a load ladder or an on/off contrast
//	basecamp dialects              # list the registered MLIR dialects (Fig. 5)
//	basecamp anomaly  -trials N    # AutoML model selection on a synthetic stream
//
// Each scenario has its own flags, defaulting to its sdk.Default* value
// (`basecamp serve fleet -h` lists them); a flag it does not read is
// rejected. Every bench also takes -cpuprofile and -memprofile.
package main

import (
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"everest/internal/anomaly"
	"everest/internal/base2"
	"everest/internal/ekl"
	"everest/internal/experiments"
	"everest/internal/fleet"
	"everest/internal/mlir"
	"everest/internal/mlir/dialects"
	"everest/internal/netsim"
	"everest/internal/olympus"
	"everest/internal/region"
	"everest/internal/runtime"
	"everest/internal/sdk"
	"everest/internal/stream"
	"everest/internal/tensor"
	"everest/internal/variants"
	"everest/internal/wrf"
)

var commands = map[string]func(args []string) error{
	"compile":  cmdCompile,
	"deploy":   cmdDeploy,
	"serve":    cmdServe,
	"bench":    cmdBench,
	"dialects": func([]string) error { return cmdDialects() },
	"anomaly":  cmdAnomaly,
}

func main() {
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprintf(os.Stderr, "usage: basecamp <compile|deploy|serve|bench|dialects|anomaly> [flags]\n"+
			"       basecamp serve <%s> [flags]\n       basecamp bench [E1..E14|%s] [flags]\n",
			strings.Join(scenarioNames(serveScenarios), "|"), strings.Join(scenarioNames(benchScenarios), "|"))
		os.Exit(2)
	}
	if err := commands[os.Args[1]](os.Args[2:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "basecamp: %v\n", err)
		os.Exit(1)
	}
}

// A scenario binds its flags on fs, each defaulting to the scenario's
// sdk.Default* value, and returns the run that reads them once fs is
// parsed; the flag package rejects any flag the scenario did not bind.
type scenario func(fs *flag.FlagSet) (run func() error)

var serveScenarios = map[string]scenario{
	"engine": serveEngine,
	"fleet":  serveFleet(sdk.DefaultFleetScenario()),
	"suite":  serveFleet(sdk.DefaultSuiteScenario()),
	"wcet":   serveWCET,
	"stream": serveStream,
	"region": serveRegion,
	"kmeans": serveKMeans,
}

var benchScenarios = map[string]scenario{
	"fleet":    benchFleet(sdk.DefaultFleetScenario()),
	"suite":    benchFleet(sdk.DefaultSuiteScenario()),
	"wcet":     benchWCET,
	"stream":   benchStream,
	"region":   benchRegion,
	"kmeans":   benchKMeans,
	"adapt":    benchEngine(sdk.DefaultAdaptiveScenario()),
	"compiled": benchEngine(sdk.DefaultCompiledScenario()),
}

func scenarioNames(m map[string]scenario) []string { return slices.Sorted(maps.Keys(m)) }

// parse parses args into fs; positional arguments are errors.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", fs.Name(), fs.Arg(0))
	}
	return nil
}

// cmdServe is `basecamp serve <scenario> [flags]`: one serving pass.
func cmdServe(args []string) error {
	if len(args) == 0 || serveScenarios[args[0]] == nil {
		return fmt.Errorf("serve: want a scenario: %s", strings.Join(scenarioNames(serveScenarios), ", "))
	}
	fs := flag.NewFlagSet("serve "+args[0], flag.ContinueOnError)
	run := serveScenarios[args[0]](fs)
	if err := parse(fs, args[1:]); err != nil {
		return err
	}
	return run()
}

// cmdBench is `basecamp bench [E1..E14|scenario] [flags]`: the experiment
// tables, or one serving scenario's claim, optionally under pprof.
func cmdBench(args []string) (err error) {
	name := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
	}
	bind, ok := benchScenarios[name]
	if !ok {
		bind = benchExperiments(name)
	}
	fs := flag.NewFlagSet(strings.TrimSpace("bench "+name), flag.ContinueOnError)
	run := bind(fs)
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file (pprof format)")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file (pprof format)")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		stop, err := startCPUProfile(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if werr := writeHeapProfile(*memProfile); werr != nil && err == nil {
				err = fmt.Errorf("-memprofile: %w", werr)
			}
		}()
	}
	return run()
}

// startCPUProfile begins streaming a pprof CPU profile to path; the
// returned stop flushes and closes it.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile snapshots the live heap to path after settling it with
// a GC cycle.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	goruntime.GC() // settle live heap before snapshotting
	return pprof.WriteHeapProfile(f)
}

// listFlag binds a comma-separated list flag to dst.
func listFlag(fs *flag.FlagSet, name, usage string, dst *[]string) {
	fs.Func(name, fmt.Sprintf("%s (default %s)", usage, strings.Join(*dst, ",")), func(s string) error {
		*dst = nil
		for _, v := range strings.Split(s, ",") {
			*dst = append(*dst, strings.TrimSpace(v))
		}
		return nil
	})
}

// ladderFlag binds a comma-separated ladder of positive numbers to dst.
func ladderFlag(fs *flag.FlagSet, name, usage string, dst *[]float64) {
	fs.Func(name, fmt.Sprintf("%s (default %v)", usage, *dst), func(s string) error {
		*dst = nil
		for _, v := range strings.Split(s, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return err
			}
			if f <= 0 {
				return fmt.Errorf("rung %g must be > 0", f)
			}
			*dst = append(*dst, f)
		}
		return nil
	})
}

// policyFlag binds -policy to dst.
func policyFlag(fs *flag.FlagSet, dst *runtime.Policy) {
	fs.Func("policy", fmt.Sprintf("placement policy: heft or fifo (default %s)", *dst), func(s string) error {
		switch strings.ToLower(s) {
		case "heft":
			*dst = runtime.PolicyHEFT
		case "fifo":
			*dst = runtime.PolicyFIFO
		default:
			return fmt.Errorf("unknown policy %q", s)
		}
		return nil
	})
}

func traceFlag(fs *flag.FlagSet) *bool { return fs.Bool("trace", false, "print the event trace") }

// serveEngine is `basecamp serve engine`: synthetic workflows from several
// tenants served concurrently on one cluster, against running them
// back-to-back.
func serveEngine(fs *flag.FlagSet) func() error {
	workflows := fs.Int("workflows", 16, "workflows to submit")
	nodes := fs.Int("nodes", 8, "compute nodes in the simulated cluster (plus cloudfpga0)")
	tenants := fs.Int("tenants", 4, "tenants sharing the cluster")
	failNode := fs.String("fail", "", "inject a node failure, e.g. node00@0.5")
	adaptive := fs.Bool("adaptive", false, "variant-aware scheduling against live monitors")
	netName := fs.String("net", "", "price transfers over a cloudFPGA stack: tcp10g or udp10g (default: flat fabric)")
	cfg := runtime.EngineConfig{Policy: runtime.PolicyHEFT}
	policyFlag(fs, &cfg.Policy)
	trace := traceFlag(fs)
	return func() error {
		if *netName != "" {
			st, err := netsim.StackByName(*netName)
			if err != nil {
				return err
			}
			cfg.Net = &st
		}
		if *workflows < 1 || *tenants < 1 || *nodes < 1 {
			return fmt.Errorf("serve: workflows, tenants and nodes must be positive")
		}
		s := sdk.New(sdk.DefaultCluster(*nodes))
		if *failNode != "" {
			node, at, _ := strings.Cut(*failNode, "@")
			f := runtime.NodeFailure{Node: node, AtTime: 0.5}
			if at != "" {
				t, err := strconv.ParseFloat(at, 64)
				if err != nil || t < 0 || math.IsInf(t, 0) || math.IsNaN(t) {
					return fmt.Errorf("serve: bad -fail time %q: want a finite number of seconds >= 0", at)
				}
				f.AtTime = t
			}
			if s.Cluster.FindNode(f.Node) == nil {
				return fmt.Errorf("serve: -fail references unknown node %q", f.Node)
			}
			cfg.Failures = append(cfg.Failures, f)
		}
		ws := make([]*runtime.Workflow, *workflows)
		for i := range ws {
			ws[i] = sdk.SyntheticWorkflow(i)
		}
		serial, err := s.SerialMakespan(cfg.Policy, ws...)
		if err != nil {
			return err
		}
		cfg.Adaptive = *adaptive
		if *trace {
			cfg.Trace = func(ev runtime.Event) {
				fmt.Printf("  [%8.4fs] %-13s tenant=%-9s wf=%-12s task=%-8s node=%-10s %s\n",
					ev.Time, ev.Kind, ev.Tenant, ev.Workflow, ev.Task, ev.Node, ev.Detail)
			}
		}
		eng := runtime.NewEngine(s.Cluster, cfg)
		futs := make([]*runtime.Future, *workflows)
		for i := range futs {
			// <tenant>/wf<n>: the workflow name breaks ties in the engine.
			tenant := fmt.Sprintf("tenant%02d", i%*tenants)
			opt := runtime.SubmitOptions{Name: fmt.Sprintf("%s/wf%d", tenant, i+1), Tenant: tenant}
			if futs[i], err = eng.Submit(sdk.SyntheticWorkflow(i), opt); err != nil {
				return err
			}
		}
		wallStart := time.Now()
		if err := eng.Start(); err != nil {
			return err
		}
		transfers, moved := 0, int64(0)
		for i, fut := range futs {
			sched, err := fut.Wait()
			if err != nil {
				return fmt.Errorf("serve: workflow %d: %w", i, err)
			}
			transfers += sched.Transfers
			moved += sched.MovedBytes
		}
		eng.Shutdown()
		wall := time.Since(wallStart)
		stats := sdk.TallyOf(futs)

		fmt.Printf("cluster    : %d compute nodes + cloudfpga0 (%d total)\n", *nodes, len(s.Cluster.Nodes))
		fmt.Printf("workflows  : %d submitted, %d done, %d failed across %d tenants (policy %s, %s)\n",
			stats.Submitted, stats.Completed, stats.Failed, len(stats.Tenants), cfg.Policy, placement(cfg.Adaptive))
		fmt.Printf("serial     : %.3gs modelled, back-to-back\n", serial)
		fmt.Printf("concurrent : %.3gs modelled\n", stats.Makespan)
		if stats.Makespan > 0 {
			fmt.Printf("speedup    : %.2fx\n", serial/stats.Makespan)
		}
		fmt.Printf("transfers  : %d batched, %.1f MB moved\n", transfers, float64(moved)/1e6)
		for _, name := range slices.Sorted(maps.Keys(stats.Tenants)) {
			ts := stats.Tenants[name]
			fmt.Printf("  %-10s : %d done, %d failed, last finish %.3gs%s\n",
				name, ts.Completed, ts.Failed, ts.LastFinish, tenantAdaptSummary(ts))
		}
		fmt.Printf("wall time  : %s\n", wall.Round(time.Millisecond))
		return nil
	}
}

func placement(adaptive bool) string {
	if adaptive {
		return "adaptive"
	}
	return "static"
}

// fleetFlags binds the knobs every fleet-tier scenario reads, plus -apps
// for the application-suite scenarios.
func fleetFlags(fs *flag.FlagSet, sc *sdk.FleetScenario) {
	fs.IntVar(&sc.Sites, "sites", sc.Sites, "federated engine sites")
	fs.IntVar(&sc.NodesPerSite, "nodes", sc.NodesPerSite, "compute nodes per site (plus cloudfpga0)")
	fs.IntVar(&sc.CacheSlots, "cache-slots", sc.CacheSlots, "resident bitstreams per site")
	fs.IntVar(&sc.Tenants, "tenants", sc.Tenants, "tenants (closed loop: concurrent clients)")
	fs.IntVar(&sc.Workflows, "workflows", sc.Workflows, "workflows to serve (per rung of a ladder)")
	// Every fleet preset scripts site 0's unplug first; -unplug-at 0 drops it.
	unplug, faults := sc.SiteEvents[0][0], sc.SiteEvents[0][1:]
	fs.Func("unplug-at", fmt.Sprintf("modelled time site 0's first accelerator detaches (0 = no fault) (default %g)", unplug.At), func(v string) (err error) {
		unplug.At, err = strconv.ParseFloat(v, 64)
		sc.SiteEvents = [][]runtime.EnvEvent{faults} // a fresh slice: the preset stays untouched
		if unplug.At > 0 {
			sc.SiteEvents[0] = append([]runtime.EnvEvent{unplug}, faults...)
		}
		return err
	})
	fs.StringVar(&sc.Net, "net", sc.Net, "intra-site transfer stack: tcp10g or udp10g (empty: flat fabric)")
	fs.StringVar(&sc.RegistryNet, "registry-net", sc.RegistryNet, "registry->site deploy fabric: tcp10g, udp10g, or eth100g")
	fs.BoolVar(&sc.Adaptive, "adaptive", sc.Adaptive, "variant-aware scheduling against live monitors")
	policyFlag(fs, &sc.Policy)
	if len(sc.Apps) > 0 {
		listFlag(fs, "apps", "comma-separated workload-registry applications to serve", &sc.Apps)
	}
}

// fleetBanner prints a fleet-tier scenario's shape, detail ending it.
func fleetBanner(sc sdk.FleetScenario, detail string) {
	fmt.Printf("fleet      : %d sites x (%d compute nodes + cloudfpga0), cache %d slot(s)/site, %s\n",
		sc.Sites, sc.NodesPerSite, sc.CacheSlots, placement(sc.Adaptive))
	workload := "mixed"
	if len(sc.Apps) > 0 {
		workload = "app-suite [" + strings.Join(sc.Apps, " ") + "]"
	}
	fmt.Printf("workload   : %d %s workflows from %d tenants, %s\n", sc.Workflows, workload, sc.Tenants, detail)
}

// serveFleet serves a fleet-tier scenario once — the E-fleet mix, or the
// application suite when def names apps — in open or closed arrival mode.
func serveFleet(def sdk.FleetScenario) scenario {
	return func(fs *flag.FlagSet) func() error {
		sc := def
		fleetFlags(fs, &sc)
		fs.Float64Var(&sc.ArrivalGap, "gap", sc.ArrivalGap, "modelled interarrival seconds (closed loop: initial stagger)")
		fs.Float64Var(&sc.SLO, "slo", sc.SLO, "p95 latency SLO in modelled seconds")
		fs.BoolVar(&sc.Closed, "closed", sc.Closed, "closed loop: each tenant keeps one workflow in flight")
		return runFleet(&sc, traceFlag(fs))
	}
}

// serveWCET is `basecamp serve wcet`: the E-wcet scenario, every 4th
// workflow submitted through the proven-bound admission class.
func serveWCET(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultGuaranteedScenario()
	fleetFlags(fs, &sc)
	fs.Float64Var(&sc.ArrivalGap, "gap", sc.ArrivalGap, "modelled interarrival seconds")
	fs.Float64Var(&sc.GuaranteedDeadline, "deadline", sc.GuaranteedDeadline, "relative latency bound guaranteed submissions must provably meet, modelled seconds")
	return runFleet(&sc, traceFlag(fs))
}

// runFleet serves sc once and prints the run.
func runFleet(sc *sdk.FleetScenario, trace *bool) func() error {
	return func() error {
		if *trace {
			sc.Trace = printFleetEvent
		}
		res, err := sc.Run()
		if err != nil {
			return err
		}
		arrivals := fmt.Sprintf("arrivals every %.3gs modelled", sc.ArrivalGap)
		if sc.Closed {
			arrivals = "closed loop, one in flight per tenant"
		}
		fleetBanner(*sc, arrivals)
		fmt.Printf("completed  : %d (%d rejected), makespan %.4gs modelled\n", res.Completed, res.Rejected, res.Makespan)
		fmt.Printf("throughput : %.4g workflows/s modelled\n", res.Throughput)
		slo := "" // the E-wcet scenario reports p95 without gating it
		if sc.SLO > 0 {
			slo = fmt.Sprintf(" (SLO %.3gs met: %v)", sc.SLO, res.SLOMet)
		}
		fmt.Printf("latency    : p50 %.4gs, p95 %.4gs, max %.4gs%s\n", res.P50, res.P95, res.Max, slo)
		if sc.GuaranteedEvery > 0 {
			fmt.Printf("guaranteed : %d admitted / %d requested (rate %.2f) at deadline %.3gs; %d degraded to best-effort\n",
				res.GuaranteedAdmitted, res.GuaranteedAdmitted+res.GuaranteedRefused,
				res.GuaranteedAdmitRate, sc.GuaranteedDeadline, res.GuaranteedRefused)
			fmt.Printf("bounds     : %d violations, worst tightness %.3g (latency/bound; sound iff 0 violations)\n",
				res.BoundViolations, res.BoundTightness)
		}
		printLatencies("app ", res.Apps)
		if sc.Closed {
			printLatencies("", res.Tenants)
		}
		for _, s := range res.Stats.Fleet.Sites {
			fmt.Printf("  %-7s : %3d served, cache %d hit / %d miss, %d evict, %d redeploy, %d fallback, %.3gs deploying\n",
				s.Name, s.Served, s.CacheHits, s.CacheMisses, s.Evictions, s.Redeploys,
				s.FallbackDeploys, s.DeploySeconds)
		}
		return nil
	}
}

func printFleetEvent(ev fleet.Event) {
	fmt.Printf("  [%8.4fs] %-10s site=%-7s tenant=%-9s wf=%-14s bs=%-12s %s\n",
		ev.Time, ev.Kind, ev.Site, ev.Tenant, ev.Workflow, ev.Bitstream, ev.Detail)
}

// printLatencies renders per-tenant or per-application latencies.
func printLatencies(label string, m map[string]sdk.TenantLatency) {
	for _, name := range slices.Sorted(maps.Keys(m)) {
		tl := m[name]
		fmt.Printf("  %-14s : %2d done, p50 %.4gs, p95 %.4gs, max %.4gs\n",
			label+name, tl.Completed, tl.P50, tl.P95, tl.Max)
	}
}

// benchFleet sweeps a fleet-tier scenario over the gap ladder and reports
// the throughput at the highest offered load whose p95 meets the SLO.
func benchFleet(def sdk.FleetScenario) scenario {
	return func(fs *flag.FlagSet) func() error {
		sc := def
		fleetFlags(fs, &sc)
		fs.Float64Var(&sc.SLO, "slo", sc.SLO, "p95 latency SLO in modelled seconds")
		gaps := sdk.DefaultSaturationGaps()
		ladderFlag(fs, "gaps", "comma-separated interarrival gaps in modelled seconds", &gaps)
		return func() error {
			fleetBanner(sc, fmt.Sprintf("SLO p95 <= %.3gs modelled", sc.SLO))
			var points []sdk.SaturationPoint
			var best sdk.SaturationPoint
			if len(sc.Apps) > 0 {
				s, err := sc.BuildSuite()
				if err != nil {
					return err
				}
				if points, best, err = sc.SaturateSuite(s, gaps); err != nil {
					return err
				}
			} else {
				c, err := sc.Compile()
				if err != nil {
					return err
				}
				if points, best, err = sc.Saturate(c, gaps); err != nil {
					return err
				}
			}
			fmt.Println("offered/s   achieved/s   p50 s     p95 s     done  rej  SLO")
			for _, p := range points {
				fmt.Printf("%9.4g   %10.4g   %7.4g   %7.4g   %4d  %3d  %s\n",
					p.OfferedRate, p.Throughput, p.P50, p.P95, p.Completed, p.Rejected, sloMark(p.SLOMet))
			}
			if best.Throughput <= 0 {
				return fmt.Errorf("no rung met the SLO; lower the offered load or raise -slo")
			}
			fmt.Printf("throughput_at_slo: %.4g workflows/s (gap %.4gs, p95 %.4gs)\n", best.Throughput, best.Gap, best.P95)
			printLatencies("app ", best.Apps)
			return nil
		}
	}
}

func sloMark(met bool) string {
	if met {
		return "ok"
	}
	return "MISS"
}

// benchWCET is `basecamp bench wcet`: the E-wcet scenario re-served once
// per deadline rung, reporting the guaranteed admit rate, bound violations
// (the run fails on any) and the tightness of the worst proof.
func benchWCET(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultGuaranteedScenario()
	fleetFlags(fs, &sc)
	fs.Float64Var(&sc.ArrivalGap, "gap", sc.ArrivalGap, "modelled interarrival seconds")
	deadlines := []float64{0.5, 1, 2, 4, 8, 16}
	ladderFlag(fs, "deadlines", "comma-separated deadline rungs in modelled seconds", &deadlines)
	return func() error {
		c, err := sc.Compile()
		if err != nil {
			return err
		}
		fleetBanner(sc, fmt.Sprintf("every %dth guaranteed", sc.GuaranteedEvery))
		faults := make([]string, len(sc.SiteEvents[0]))
		for i, ev := range sc.SiteEvents[0] {
			faults[i] = fmt.Sprintf("%gx slowdown@%.3gs", ev.Factor, ev.At)
			if ev.Kind == runtime.EnvUnplug {
				faults[i] = fmt.Sprintf("unplug@%.3gs", ev.At)
			}
		}
		fmt.Printf("faults     : %s on site 0 (within the fleet's slowdown cap of 4)\n", strings.Join(faults, " + "))
		fmt.Printf("%10s %10s %10s %10s %12s %10s %10s\n",
			"deadline_s", "requested", "admitted", "admit_rate", "violations", "tightness", "p95_s")
		violations := 0
		for _, dl := range deadlines {
			rung := sc
			rung.GuaranteedDeadline = dl
			res, err := rung.RunWith(c)
			if err != nil {
				return err
			}
			violations += res.BoundViolations
			fmt.Printf("%10.3g %10d %10d %10.2f %12d %10.3g %10.4g\n",
				dl, res.GuaranteedAdmitted+res.GuaranteedRefused, res.GuaranteedAdmitted,
				res.GuaranteedAdmitRate, res.BoundViolations, res.BoundTightness, res.P95)
		}
		return boundsHeld(violations)
	}
}

// boundsHeld fails the run when an admitted guarantee missed its bound.
func boundsHeld(violations int) error {
	if violations > 0 {
		return fmt.Errorf("%d guaranteed completions missed their proven bound — the admission math is broken", violations)
	}
	fmt.Println("bounds     : every admitted guarantee held (0 violations)")
	return nil
}

// streamServer binds the knobs both stream scenarios read; the returned
// constructor builds the server and prints its effective scenario.
func streamServer(fs *flag.FlagSet, sc *sdk.StreamScenario) func() (*sdk.StreamServer, error) {
	fs.IntVar(&sc.Nodes, "nodes", sc.Nodes, "compute nodes (plus cloudfpga0)")
	listFlag(fs, "apps", "comma-separated workload-registry applications served as pipelines", &sc.Apps)
	fs.IntVar(&sc.Pipelines, "pipelines", sc.Pipelines, "concurrent pipelines, round-robin over the apps")
	fs.IntVar(&sc.Events, "events", sc.Events, "events per pipeline")
	fs.StringVar(&sc.Arrival, "arrival", sc.Arrival, "arrival process: poisson, bursty, or diurnal")
	fs.BoolVar(&sc.PartialReconfig, "partial", sc.PartialReconfig, "keep kernels resident in FPGA partial-reconfiguration regions")
	fs.Float64Var(&sc.SLO, "slo", sc.SLO, "p99 end-to-end event latency SLO in modelled seconds")
	return func() (*sdk.StreamServer, error) {
		srv, err := sdk.NewStreamServer(*sc)
		if err != nil {
			return nil, err
		}
		*sc = srv.Scenario()
		fmt.Printf("stream     : %d pipelines over [%s], %d events each at %.4g ev/s, %s arrivals\n",
			sc.Pipelines, strings.Join(sc.Apps, " "), sc.Events, sc.Rate, sc.Arrival)
		fmt.Printf("cluster    : %d compute node(s) + cloudfpga0, partial reconfig %v, SLO p99 <= %.3gs modelled\n",
			sc.Nodes, sc.PartialReconfig, sc.SLO)
		return srv, nil
	}
}

// serveStream is `basecamp serve stream`: the app suite served as
// long-lived streaming pipelines for one run at a fixed rate, with
// per-pipeline outcomes and per-device residency churn.
func serveStream(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultStreamScenario()
	build := streamServer(fs, &sc)
	fs.Float64Var(&sc.Rate, "rate", sc.Rate, "per-pipeline event arrival rate (events per modelled second)")
	trace := traceFlag(fs)
	return func() error {
		if *trace {
			sc.Trace = func(ev stream.Event) {
				fmt.Printf("  [%10.6fs] %-7s pipe=%-10s stage=%-9s dev=%-11s bs=%-12s %d ev\n",
					ev.Time, ev.Kind, ev.Pipeline, ev.Stage, ev.Device, ev.Bitstream, ev.Events)
			}
		}
		srv, err := build()
		if err != nil {
			return err
		}
		st, err := srv.Run()
		if err != nil {
			return err
		}
		fmt.Printf("served     : %d of %d events (%d shed), %d windows, makespan %.4gs modelled\n",
			st.Done, st.Events, st.Shed, st.Windows, st.Makespan)
		fmt.Printf("throughput : %.4g events/s modelled\n", st.Throughput)
		fmt.Printf("latency    : p50 %.4gs, p99 %.4gs, max %.4gs (SLO met: %v)\n", st.P50, st.P99, st.Max, st.P99 <= sc.SLO)
		for _, p := range st.Pipelines {
			fmt.Printf("  %-10s : %-10s %7d done, %6d shed, p50 %.4gs, p99 %.4gs\n",
				p.Name, p.Tenant, p.Done, p.Shed, p.P50, p.P99)
		}
		for _, d := range st.Devices {
			fmt.Printf("  %-13s : %d kernel(s) in %d region(s), %d swaps (%.4gs reloading)\n",
				d.Name, d.Kernels, d.Regions, d.Swaps, d.SwapSeconds)
		}
		return nil
	}
}

// benchStream is `basecamp bench stream`: the E-stream rate ladder's
// sustained events/sec at the p99 SLO, then the partial-reconfiguration
// swap win at the scenario's rate.
func benchStream(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultStreamScenario()
	build := streamServer(fs, &sc)
	rates := sdk.DefaultStreamRates()
	ladderFlag(fs, "rates", "comma-separated per-pipeline event rates", &rates)
	return func() error {
		srv, err := build()
		if err != nil {
			return err
		}
		points, best, err := srv.Saturate(rates)
		if err != nil {
			return err
		}
		fmt.Println("rate/pipe   achieved/s   p50 s       p99 s       shed     swaps  SLO")
		for _, p := range points {
			fmt.Printf("%9.4g   %10.4g   %9.4g   %9.4g   %6d   %5d  %s\n",
				p.Rate, p.Throughput, p.P50, p.P99, p.Shed, p.Swaps, sloMark(p.SLOMet))
		}
		if best.Throughput <= 0 {
			return fmt.Errorf("no rung met the SLO; lower the offered rates or raise -slo")
		}
		fmt.Printf("events_per_sec_at_slo: %.4g (rate %.4g/pipeline, p99 %.4gs)\n", best.Throughput, best.Rate, best.P99)
		on, off, err := srv.SwapWin()
		if err != nil {
			return err
		}
		fmt.Printf("swap_win   : partial on  %.4g ev/s, p99 %.4gs, %d swaps\n", on.Throughput, on.P99, on.Swaps)
		fmt.Printf("             partial off %.4g ev/s, p99 %.4gs, %d swaps (%.4gs reloading)\n",
			off.Throughput, off.P99, off.Swaps, off.SwapSeconds)
		return nil
	}
}

// regionFlags binds the knobs both region scenarios read; the returned
// banner prints the scenario's shape.
func regionFlags(fs *flag.FlagSet, sc *sdk.RegionScenario) (banner func()) {
	fs.IntVar(&sc.Regions, "regions", sc.Regions, "regions in the federation")
	fs.IntVar(&sc.Workflows, "workflows", sc.Workflows, "workflows in the wave")
	fs.Float64Var(&sc.ArrivalGap, "gap", sc.ArrivalGap, "modelled interarrival seconds")
	fs.StringVar(&sc.WAN, "wan", sc.WAN, "inter-region fabric: wan10g or wan1g")
	return func() {
		fmt.Printf("federation : %d regions x %d sites x (%d compute nodes + cloudfpga0), store %d slot(s)/region, WAN %s\n",
			sc.Regions, sc.SitesPerRegion, sc.NodesPerSite, sc.StoreSlots, sc.WAN)
		fmt.Printf("workload   : %d app-suite [%s] workflows, wave period %.3gs, batch every %d, guaranteed every %dth wave arrival (deadline %.3gs)\n",
			sc.Workflows, strings.Join(sc.Apps, " "), float64(sc.Regions*sc.BlockSize)*sc.ArrivalGap,
			sc.BatchEvery, sc.GuaranteedEvery, sc.GuaranteedDeadline)
	}
}

// serveRegion is `basecamp serve region`: the E-region traffic wave
// served once through the multi-region federation, with per-region
// stats.
func serveRegion(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultRegionScenario()
	banner := regionFlags(fs, &sc)
	fs.BoolVar(&sc.Prefetch, "prefetch", sc.Prefetch, "forecast-driven bitstream prefetch")
	trace := traceFlag(fs)
	return func() error {
		if *trace {
			sc.Trace = func(ev region.Event) {
				fmt.Printf("  [%8.4fs] %-10s region=%-9s tenant=%-9s wf=%-14s app=%-8s bs=%-12s %s\n",
					ev.Time, ev.Kind, ev.Region, ev.Tenant, ev.Workflow, ev.App, ev.Bitstream, ev.Detail)
			}
		}
		res, err := sc.Run()
		if err != nil {
			return err
		}
		banner()
		fmt.Printf("completed  : %d (%d rejected), makespan %.4gs modelled\n", res.Completed, res.Rejected, res.Makespan)
		fmt.Printf("throughput : %.4g workflows/s modelled\n", res.Throughput)
		fmt.Printf("latency    : p50 %.4gs, p95 %.4gs, max %.4gs, batch p95 %.4gs; tail p99 %.4gs, cold-start overhead p99 %.4gs\n",
			res.P50, res.P95, res.Max, res.BatchP95, res.TailP99, res.TailColdStartP99)
		fmt.Printf("guaranteed : %d admitted / %d requested (rate %.2f); %d degraded to best-effort; %d bound violations (sound iff 0), bound tightness %.3g\n",
			res.GuaranteedAdmitted, res.GuaranteedAdmitted+res.GuaranteedRefused,
			res.GuaranteedAdmitRate, res.GuaranteedRefused, res.BoundViolations, res.BoundTightness)
		fmt.Printf("wan        : prefetch %v, %d handoffs, %d cold serves, %d prefetch stages, %d warms, %d preemptions\n",
			sc.Prefetch, res.Handoffs, res.ColdServes, res.PrefetchFetches, res.Warms, res.Preemptions)
		for _, r := range res.Stats.Regions {
			fmt.Printf("  %-9s : %3d served (%d guaranteed, %d batch), %d cold, %d fetch %.3gs wan, %d prefetch %.3gs, %d evict\n",
				r.Name, r.Served, r.Guaranteed, r.Batch, r.ColdServes,
				r.WANFetches, r.WANFetchSeconds, r.PrefetchFetches, r.PrefetchSeconds,
				r.StoreEvictions)
		}
		return nil
	}
}

// benchRegion is `basecamp bench region`: the E-region scenario served
// with bitstream prefetch off and on, and the tail cold-start contrast.
func benchRegion(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultRegionScenario()
	banner := regionFlags(fs, &sc)
	return func() error {
		s, err := sc.BuildSuite()
		if err != nil {
			return err
		}
		banner()
		on, off, err := sc.PrefetchWin(s)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %6s %9s %12s %10s %9s %9s %9s %11s\n",
			"prefetch", "done", "tail_p99", "coldstart_99", "tail_cold", "handoffs", "staged", "admitted", "violations")
		row := func(label string, res sdk.RegionResult) {
			fmt.Printf("%-12s %6d %8.4gs %11.4gs %10d %9d %9d %5d/%-3d %11d\n",
				label, res.Completed, res.TailP99, res.TailColdStartP99, res.TailCold,
				res.Handoffs, res.PrefetchFetches, res.GuaranteedAdmitted,
				res.GuaranteedAdmitted+res.GuaranteedRefused, res.BoundViolations)
		}
		row("off", off)
		row("on", on)
		if on.TailColdStartP99 <= 0 {
			return fmt.Errorf("prefetch-on arm has no tail overhead to compare (%.4g)", on.TailColdStartP99)
		}
		fmt.Printf("coldstart_p99_speedup: %.4gx (off %.4gs / on %.4gs)\n",
			off.TailColdStartP99/on.TailColdStartP99, off.TailColdStartP99, on.TailColdStartP99)
		return boundsHeld(on.BoundViolations + off.BoundViolations)
	}
}

// kmeansFlags binds the knobs both k-means scenarios read; the returned
// banner prints the scenario's shape.
func kmeansFlags(fs *flag.FlagSet, sc *sdk.KMeansScenario) (banner func()) {
	fs.IntVar(&sc.Sites, "sites", sc.Sites, "federated sites the partitions are scattered across")
	fs.IntVar(&sc.Config.Partitions, "partitions", sc.Config.Partitions, "point partitions (one map shard each)")
	fs.IntVar(&sc.Config.Centroids, "centroids", sc.Config.Centroids, "cluster count")
	fs.StringVar(&sc.RegistryNet, "registry-net", sc.RegistryNet, "inter-site data/deploy fabric")
	return func() {
		fmt.Printf("fleet      : %d sites over %s, site-local dataset stores, kernels pre-warmed fleet-wide\n",
			sc.Sites, sc.RegistryNet)
		fmt.Printf("workload   : %d rounds x (%d map shards + 1 reduce), %d points x %d dims, %d centroids, partitions scattered\n",
			sc.Rounds, sc.Config.Partitions, sc.Config.Points, sc.Config.Dims, sc.Config.Centroids)
	}
}

// serveKMeans is `basecamp serve kmeans`: the E-data map-reduce k-means
// served once through the fleet's named data plane, with per-site data
// traffic.
func serveKMeans(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultKMeansScenario()
	banner := kmeansFlags(fs, &sc)
	trace := traceFlag(fs)
	return func() error {
		if *trace {
			sc.Trace = printFleetEvent
		}
		res, err := sc.Run()
		if err != nil {
			return err
		}
		banner()
		fmt.Printf("completed  : %d workflows, makespan %.4gs modelled, %.4g workflows/s\n",
			res.Workflows, res.Makespan, res.Throughput)
		fmt.Printf("data plane : %d B shipped (%.4g B/workflow), %.4gs staging stall, %d store hits / %d misses\n",
			res.ShippedBytes, res.BytesPerWorkflow, res.FetchStall, res.DatasetHits, res.DatasetMisses)
		for _, s := range res.Stats.Fleet.Sites {
			fmt.Printf("  %-7s : %3d served, data %d hits / %d misses, %d fetches %dB in, %d published %dB, %d evicted\n",
				s.Name, s.Served, s.DatasetHits, s.DatasetMisses,
				s.DatasetFetches, s.DatasetFetchedBytes, s.DatasetPublished, s.DatasetPublishedBytes, s.DatasetEvictions)
		}
		return nil
	}
}

// benchKMeans is `basecamp bench kmeans`: the E-data workload served
// placement-blind and with data-locality routing, and the byte win.
func benchKMeans(fs *flag.FlagSet) func() error {
	sc := sdk.DefaultKMeansScenario()
	banner := kmeansFlags(fs, &sc)
	return func() error {
		banner()
		local, blind, err := sc.LocalityWin()
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %6s %10s %12s %12s %9s %9s %12s\n",
			"routing", "done", "shipped", "B/workflow", "stall", "hits", "misses", "wf/s")
		row := func(label string, res sdk.KMeansResult) {
			fmt.Printf("%-10s %6d %9dB %12.4g %11.4gs %9d %9d %12.4g\n",
				label, res.Workflows, res.ShippedBytes, res.BytesPerWorkflow,
				res.FetchStall, res.DatasetHits, res.DatasetMisses, res.Throughput)
		}
		row("blind", blind)
		row("locality", local)
		if local.BytesPerWorkflow <= 0 {
			return fmt.Errorf("locality arm shipped nothing to compare (%.4g B/workflow)", local.BytesPerWorkflow)
		}
		fmt.Printf("locality_byte_win: %.4gx (blind %.4g B/wf / locality %.4g B/wf)\n",
			blind.BytesPerWorkflow/local.BytesPerWorkflow, blind.BytesPerWorkflow, local.BytesPerWorkflow)
		return nil
	}
}

// benchEngine is `basecamp bench adapt|compiled`: an engine-tier
// scenario's workflows served statically and adaptively under the same
// faults — E-adapt's hand-declared Monte-Carlo workload, or E-compile's
// kernel with the adaptive arm's tuners seeded from compiler-derived
// operating points.
func benchEngine(def sdk.AdaptiveScenario) scenario {
	return func(fs *flag.FlagSet) func() error {
		sc := def
		fs.IntVar(&sc.Workflows, "workflows", sc.Workflows, "workflows to submit")
		fs.IntVar(&sc.Nodes, "nodes", sc.Nodes, "compute nodes in the simulated cluster (plus cloudfpga0)")
		fs.IntVar(&sc.FPGANodes, "fpga-nodes", sc.FPGANodes, "nodes the bitstream is staged on")
		fs.IntVar(&sc.Tenants, "tenants", sc.Tenants, "tenants sharing the cluster")
		fs.Float64Var(&sc.Slowdown, "slow", sc.Slowdown, "load factor hitting the last compute node")
		fs.Float64Var(&sc.FaultAt, "fault-at", sc.FaultAt, "modelled time the faults take effect")
		return func() error {
			c, err := sc.Compile()
			if err != nil {
				return err
			}
			static, adaptive, err := sc.AdaptWin(c)
			if err != nil {
				return err
			}
			if c == nil {
				fmt.Printf("scenario   : %d workflows, %d nodes (%d with FPGA), %d tenants\n",
					sc.Workflows, sc.Nodes, sc.FPGANodes, sc.Tenants)
			} else {
				fmt.Printf("scenario   : %d workflows of compiled kernel %q, %d nodes (%d with FPGA), %d tenants, %s transfers\n",
					sc.Workflows, c.KernelName, sc.Nodes, sc.FPGANodes, sc.Tenants, sc.Net)
				fmt.Printf("hls        : %s\n", c.Report.String())
				fmt.Println("variants   : (derived from the HLS schedule + CPU cost model)")
				for _, row := range c.Summary() {
					fmt.Printf("  %s\n", row)
				}
			}
			fmt.Printf("faults     : unplug FPGA of node00 + %.3gx slowdown of node%02d, from t=%.3gs\n",
				sc.Slowdown, sc.Nodes-1, sc.FaultAt)
			fmt.Printf("static     : %.4gs modelled\n", static.Makespan)
			fmt.Printf("adaptive   : %.4gs modelled\n", adaptive.Makespan)
			if adaptive.Makespan > 0 {
				fmt.Printf("speedup    : %.2fx\n", static.Makespan/adaptive.Makespan)
			}
			for _, name := range slices.Sorted(maps.Keys(adaptive.Stats.Tenants)) {
				fmt.Printf("  %-10s : %s\n", name, strings.TrimPrefix(tenantAdaptSummary(adaptive.Stats.Tenants[name]), ", "))
			}
			if c == nil {
				fmt.Println("node health (adaptive run):")
				for _, h := range adaptive.Health {
					fmt.Printf("  %-10s : %2d tasks, ewma %.3gs, load est %.2fx, devices %d/%d\n",
						h.Node, h.Tasks, h.EWMALatency, h.SlowdownEst, h.DevicesOnline, h.DevicesTotal)
				}
			}
			return nil
		}
	}
}

// tenantAdaptSummary renders a tenant's adaptation stats: empty when the
// run had none, without the variants clause when no variant was chosen.
func tenantAdaptSummary(ts sdk.TenantStats) string {
	if len(ts.Variants) == 0 && ts.Reschedules == 0 && ts.Fallbacks == 0 {
		return ""
	}
	variants := ""
	if len(ts.Variants) > 0 {
		var vars []string
		for v, n := range ts.Variants {
			vars = append(vars, fmt.Sprintf("%s:%d", v, n))
		}
		sort.Strings(vars)
		variants = fmt.Sprintf("variants [%s], ", strings.Join(vars, " "))
	}
	return fmt.Sprintf(", %s%d resched, %d fallback", variants, ts.Reschedules, ts.Fallbacks)
}

// benchExperiments prints the reproduction experiment tables: every one,
// or only the named one (E1..E14); -list prints the IDs instead.
func benchExperiments(only string) scenario {
	return func(fs *flag.FlagSet) func() error {
		list := fs.Bool("list", false, "list experiment IDs and exit")
		return func() error {
			ran := false
			for i, exp := range experiments.All() {
				id := fmt.Sprintf("E%d", i+1)
				if *list {
					fmt.Println(id)
					continue
				}
				if only != "" && !strings.EqualFold(only, id) {
					continue
				}
				ran = true
				tab, err := exp()
				if err != nil {
					return fmt.Errorf("%s: %w", id, err)
				}
				fmt.Println(tab.String())
			}
			if !ran && !*list {
				return fmt.Errorf("bench: unknown experiment or scenario %q (want E1..E14 or %s)",
					only, strings.Join(scenarioNames(benchScenarios), ", "))
			}
			return nil
		}
	}
}

func formatByName(name string) (base2.Format, error) {
	switch strings.ToLower(name) {
	case "", "f32":
		return base2.Float32{}, nil
	case "f64":
		return base2.Float64{}, nil
	case "bf16":
		return base2.BF16(), nil
	case "f16":
		return base2.FP16(), nil
	case "fixed16":
		return base2.NewFixedFormat(4, 12)
	case "posit16":
		return base2.NewPositFormat(16, 1)
	default:
		return nil, fmt.Errorf("unknown format %q", name)
	}
}

func cmdCompile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	kernelPath := fs.String("kernel", "demo",
		"EKL source file, 'demo' for the RRTMG kernel, or a built-in example: "+
			strings.Join(variants.ExampleNames(), ", "))
	lang := fs.String("lang", "ekl", "frontend: ekl or cfdlang ('cfdlang' also accepts -kernel matmul)")
	backend := fs.String("backend", "vitis", "HLS backend: vitis or bambu")
	format := fs.String("format", "f32", "datapath format")
	device := fs.String("device", "alveo-u55c", "target device")
	memPorts := fs.Int("memports", 0, "PLM banking: concurrent ports the datapath sees (0 = 2)")
	emit := fs.String("emit", "summary", "output: summary, mlir, olympus, driver, or source")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmtF, err := formatByName(*format)
	if err != nil {
		return err
	}
	oly := sdk.DefaultOlympus()
	oly.MemPorts = *memPorts
	opt := variants.Options{
		Backend: *backend, Format: fmtF, Device: *device,
		Olympus: oly,
	}

	var c *variants.Compiled
	switch {
	case *lang == "cfdlang":
		src := variants.MatmulCFD()
		name := "matmul"
		if *kernelPath != "demo" && *kernelPath != "matmul" {
			data, err := os.ReadFile(*kernelPath)
			if err != nil {
				return err
			}
			src, name = string(data), *kernelPath
		}
		c, err = variants.CompileCFDlang(src, name, nil, opt)
	case *kernelPath == "demo":
		c, err = variants.CompileEKL(wrf.EKLSource(), demoBinding(), opt)
	case isExampleKernel(*kernelPath):
		c, err = variants.CompileExample(*kernelPath, opt)
	default:
		data, err2 := os.ReadFile(*kernelPath)
		if err2 != nil {
			return err2
		}
		src := string(data)
		k, err2 := ekl.ParseKernel(src)
		if err2 != nil {
			return err2
		}
		// Shapes, not values, drive hardware generation: synthesize a
		// binding with default extents for symbolic dimensions.
		c, err = variants.CompileEKL(src, variants.SynthesizeBinding(k, nil), opt)
	}
	if err != nil {
		return err
	}

	switch *emit {
	case "mlir":
		fmt.Println(c.Module.String())
	case "olympus":
		m, err := olympus.EmitModule(c.Design)
		if err != nil {
			return err
		}
		fmt.Println(m.String())
	case "driver":
		for _, line := range c.Design.HostCode {
			fmt.Println(line)
		}
	case "source":
		switch {
		case c.Kernel != nil:
			fmt.Print(c.Kernel.Source())
		case c.Program != nil:
			fmt.Print(c.Program.Source())
		default:
			return fmt.Errorf("compile: no parsed source to print")
		}
	default:
		stmts := "-"
		if c.Kernel != nil {
			stmts = fmt.Sprintf("%d statements", c.Kernel.SourceLines())
		}
		fmt.Printf("kernel   : %s [%s] (%s)\n", c.KernelName, c.Frontend, stmts)
		fmt.Printf("hls      : %s\n", c.Report.String())
		cfg := c.Design.Bitstream.Config
		fmt.Printf("olympus  : replicas=%d lanes=%d packed=%d doublebuf=%v plm=%dB\n",
			cfg.Replicas, cfg.Lanes, cfg.PackedElements, cfg.DoubleBuffered, cfg.PLMBytes)
		fmt.Printf("bitstream: %s (util %.1f%% of %s)\n",
			c.Design.Bitstream.ID, c.Design.FitUtil*100, c.Design.Bitstream.Target)
		for _, st := range c.PassStats {
			fmt.Printf("pass     : %-16s %8v  (%d ops after)\n", st.Pass, st.Duration, st.OpsAfter)
		}
		fmt.Printf("workload : %.4g effective flops, %dB in, %dB out\n",
			c.Flops, c.InputBytes, c.OutputBytes)
		fmt.Println("variants : (operating points derived from the HLS schedule + CPU cost model)")
		for _, row := range c.Summary() {
			fmt.Printf("  %s\n", row)
		}
		tn, err := c.NewTuner()
		if err != nil {
			return err
		}
		fmt.Printf("tuner    : best=%s\n", tn.Best())
	}
	return nil
}

func isExampleKernel(name string) bool { return slices.Contains(variants.ExampleNames(), name) }

func demoBinding() ekl.Binding {
	rng := rand.New(rand.NewSource(1))
	const nflav, nT, nP, nEta, nx, ng = 3, 12, 16, 9, 32, 16
	intT := func(max int, shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		for i := range t.Data() {
			t.Data()[i] = float64(rng.Intn(max))
		}
		return t
	}
	return ekl.Binding{
		Tensors: map[string]*tensor.Tensor{
			"p":           tensor.Random(rng, 5000, 101325, nx),
			"bnd_to_flav": intT(nflav, 2, 4),
			"j_T":         intT(nT-2, nx),
			"j_p":         intT(nP-3, nx),
			"j_eta":       intT(nEta-2, nflav, nx),
			"r_mix":       tensor.Random(rng, 0, 1, nflav, nx, 2),
			"f_major":     tensor.Random(rng, 0, 1, nflav, nx, 2, 2, 2),
			"k_major":     tensor.Random(rng, 0.1, 1, nT, nP, nEta, ng),
		},
		Scalars: map[string]float64{"bnd": 1},
	}
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	nodes := fs.Int("nodes", 2, "compute nodes in the simulated cluster")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s := sdk.New(sdk.DefaultCluster(*nodes))
	res, err := sdk.Compile(wrf.EKLSource(), demoBinding(), sdk.CompileOptions{
		Olympus: olympus.Options{SharePLM: true, DoubleBuffer: true, Replicate: true, MaxReplicas: 4, PackData: true},
	})
	if err != nil {
		return err
	}
	if err := s.Publish(res); err != nil {
		return err
	}
	dt, err := s.Deploy(res.Design.Bitstream.ID, "node00")
	if err != nil {
		return err
	}
	fmt.Printf("staged %s on node00 in %.0f ms\n", res.Design.Bitstream.ID, dt*1000)

	w := runtime.NewWorkflow()
	if err := w.Submit(runtime.TaskSpec{Name: "prep", Flops: 5e9, OutputBytes: 1 << 24}); err != nil {
		return err
	}
	if err := w.Submit(runtime.TaskSpec{
		Name: "radiation", Deps: []string{"prep"},
		Flops: 5e10, InputBytes: 1 << 24, OutputBytes: 1 << 22,
		NeedsFPGA: true, BitstreamID: res.Design.Bitstream.ID,
	}); err != nil {
		return err
	}
	if err := w.Submit(runtime.TaskSpec{Name: "post", Deps: []string{"radiation"},
		Flops: 1e9, InputBytes: 1 << 22}); err != nil {
		return err
	}
	sched, err := runtime.ServeAlone(s.Cluster, runtime.EngineConfig{Policy: runtime.PolicyHEFT}, w)
	if err != nil {
		return err
	}
	fmt.Printf("makespan: %.3gs over %d tasks (%d transfers)\n",
		sched.Makespan, len(sched.Assignments), sched.Transfers)
	for _, a := range sched.Assignments {
		target := "cpu"
		if a.OnFPGA {
			target = "fpga"
		}
		fmt.Printf("  %-10s %-8s %-5s [%.3g, %.3g]s\n", a.Task, a.Node, target, a.Start, a.End)
	}
	return nil
}

func cmdDialects() error {
	ctx := mlir.NewContext()
	dialects.RegisterAll(ctx)
	fmt.Println("registered MLIR dialects (paper Fig. 5):")
	for _, name := range ctx.DialectNames() {
		fmt.Printf("  %s\n", name)
	}
	return nil
}

func cmdAnomaly(args []string) error {
	fs := flag.NewFlagSet("anomaly", flag.ExitOnError)
	trials := fs.Int("trials", 30, "AutoML trial budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(8))
	train := tensor.New(250, 2)
	for i := 0; i < 250; i++ {
		train.Set(rng.NormFloat64(), i, 0)
		train.Set(rng.NormFloat64()*0.5+1, i, 1)
	}
	val := tensor.New(250, 2)
	labels := make([]bool, 250)
	for i := 0; i < 250; i++ {
		val.Set(rng.NormFloat64(), i, 0)
		val.Set(rng.NormFloat64()*0.5+1, i, 1)
	}
	for k := 0; k < 12; k++ {
		i := (k*19 + 5) % 250
		val.Set(9+rng.Float64()*3, i, 0)
		val.Set(-7-rng.Float64()*2, i, 1)
		labels[i] = true
	}
	tpe, err := anomaly.NewTPE(anomaly.DetectorSpace(), 7)
	if err != nil {
		return err
	}
	res, err := anomaly.SelectModel(train, val, labels, 12.0/250, *trials, tpe)
	if err != nil {
		return err
	}
	fmt.Printf("selected %s (F1=%.3f after %d trials)\n",
		res.Best.Cats["detector"], res.BestF1, res.Trials)
	node := &anomaly.DetectionNode{Detector: res.Detector}
	if err := node.CalibrateThreshold(train, 0.05); err != nil {
		return err
	}
	rep, err := node.Detect(val)
	if err != nil {
		return err
	}
	rep.Scores = nil // keep the JSON small
	js, err := rep.JSON()
	if err != nil {
		return err
	}
	fmt.Println(js)
	return nil
}
