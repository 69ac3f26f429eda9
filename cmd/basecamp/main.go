// Command basecamp is the single point of access to the EVEREST SDK (paper
// §IV: "all tools within the SDK are wrapped under the basecamp command").
//
// Subcommands:
//
//	basecamp compile  -kernel <file.ekl|demo|windpower|airquality> [-lang ekl|cfdlang] [-backend vitis|bambu] [-format f32|f64|bf16|f16|fixed16|posit16] [-device alveo-u55c|alveo-u280|cloudfpga] [-memports N] [-emit mlir|olympus|driver|source]
//	                               # source-to-schedule: prints the HLS report plus the derived
//	                               # cpu1/cpu16/fpga operating points and the tuner's pick
//	basecamp deploy   -nodes N     # compile demo kernel, stage it, plan a workflow
//	basecamp serve    -workflows N [-adaptive] [-net tcp10g|udp10g]  # concurrent multi-tenant runtime demo
//	basecamp serve    -sites N -cache-slots K [-registry-net tcp10g|udp10g|eth100g] [-gap S]  # federated fleet serving
//	basecamp serve    -sites N -suite [-apps energy,traffic,weather]  # serve the EVEREST application suite (workload registry)
//	basecamp serve    -stream [-rate R] [-events N] [-arrival poisson|bursty|diurnal] [-partial=false]  # streaming pipelines with resident kernels
//	basecamp serve    -regions N [-prefetch=false] [-autoscale] [-wan wan10g|wan1g]  # hierarchical multi-region federation with predictive prefetch
//	basecamp serve    -kmeans [-partitions N] [-centroids K]  # FPGA map-reduce k-means over the named data plane
//	basecamp adapt    -workflows N [-compiled]  # adaptive vs static placement under injected faults
//	basecamp dialects              # list the registered MLIR dialects (Fig. 5)
//	basecamp anomaly  -trials N    # AutoML model selection on a synthetic stream
//	basecamp bench                 # shortcut: run all reproduction experiments
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"everest/internal/anomaly"
	"everest/internal/apps"
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compile":
		err = cmdCompile(os.Args[2:])
	case "deploy":
		err = cmdDeploy(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "adapt":
		err = cmdAdapt(os.Args[2:])
	case "dialects":
		err = cmdDialects()
	case "anomaly":
		err = cmdAnomaly(os.Args[2:])
	case "bench":
		err = cmdBench()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "basecamp: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "basecamp: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: basecamp <compile|deploy|serve|adapt|dialects|anomaly|bench> [flags]`)
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
		c, err = variants.CompileEKL(src, sdk.GenericBinding(k, 16), opt)
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

func isExampleKernel(name string) bool {
	for _, n := range variants.ExampleNames() {
		if n == name {
			return true
		}
	}
	return false
}

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
	sched, err := s.NewScheduler(runtime.PolicyHEFT).Plan(w)
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

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	workflows := fs.Int("workflows", 16, "workflows to submit")
	nodes := fs.Int("nodes", 8, "compute nodes in the simulated cluster (per site with -sites > 1)")
	policyName := fs.String("policy", "heft", "placement policy: heft or fifo")
	tenants := fs.Int("tenants", 4, "tenants sharing the cluster")
	failNode := fs.String("fail", "", "inject a node failure, e.g. node00@0.5")
	trace := fs.Bool("trace", false, "print engine events")
	adaptive := fs.Bool("adaptive", false, "variant-aware scheduling against live monitors")
	netName := fs.String("net", "", "price transfers over a cloudFPGA stack: tcp10g or udp10g (default: flat fabric)")
	sites := fs.Int("sites", 1, "federated engine sites (> 1 serves through the fleet router)")
	cacheSlots := fs.Int("cache-slots", 1, "resident bitstreams per site (fleet mode)")
	registryNet := fs.String("registry-net", "tcp10g", "registry->site deploy fabric (fleet mode): tcp10g, udp10g, or eth100g")
	gap := fs.Float64("gap", 0.05, "modelled interarrival seconds between submissions (fleet mode)")
	unplugAt := fs.Float64("unplug-at", 0.5, "modelled time site 0's first accelerator detaches (fleet mode; 0 = no fault)")
	guaranteed := fs.Bool("guaranteed", false, "submit every 4th workflow through the proven-bound admission class (fleet mode)")
	deadline := fs.Float64("deadline", 4, "relative latency bound guaranteed submissions must provably meet, modelled seconds (fleet mode)")
	suite := fs.Bool("suite", false, "serve the EVEREST application suite from the workload registry (fleet mode)")
	appList := fs.String("apps", "", "comma-separated registry applications to serve (fleet mode; implies -suite)")
	streamMode := fs.Bool("stream", false, "serve long-lived streaming pipelines (windowed operators over the app suite)")
	rate := fs.Float64("rate", 0, "per-pipeline event arrival rate (stream mode; 0 = scenario default)")
	events := fs.Int("events", 0, "events per pipeline (stream mode; 0 = scenario default)")
	pipelines := fs.Int("pipelines", 0, "concurrent pipelines (stream mode; 0 = 2x apps)")
	arrival := fs.String("arrival", "poisson", "arrival process (stream mode): poisson, bursty, or diurnal")
	partial := fs.Bool("partial", true, "keep kernels resident in FPGA partial-reconfiguration regions (stream mode)")
	regions := fs.Int("regions", 0, "serve through the hierarchical multi-region federation (> 0 regions; its own scenario)")
	prefetch := fs.Bool("prefetch", true, "forecast-driven bitstream prefetch (region mode)")
	autoscale := fs.Bool("autoscale", false, "let regions grow and shrink their active site count (region mode)")
	wan := fs.String("wan", "", "inter-region fabric (region mode): wan10g or wan1g (default: scenario's)")
	kmeans := fs.Bool("kmeans", false, "serve the FPGA map-reduce k-means over the named data plane (its own scenario)")
	partitions := fs.Int("partitions", 0, "point partitions scattered across the sites (kmeans mode; 0 = scenario default)")
	centroids := fs.Int("centroids", 0, "cluster count (kmeans mode; 0 = scenario default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var policy runtime.Policy
	switch strings.ToLower(*policyName) {
	case "heft":
		policy = runtime.PolicyHEFT
	case "fifo":
		policy = runtime.PolicyFIFO
	default:
		return fmt.Errorf("serve: unknown policy %q", *policyName)
	}
	// Each serving mode has flags the others would silently ignore, which
	// would misreport what was measured: per-site serving is serial and
	// faults are scripted per site in fleet mode, cache/deploy/arrival
	// knobs only exist there, and the streaming tier has its own workload
	// shape (open arrivals over windowed operators, no workflow count).
	streamOnly := map[string]bool{
		"rate": true, "events": true, "pipelines": true, "arrival": true, "partial": true,
	}
	streamOK := map[string]bool{"stream": true, "nodes": true, "trace": true, "apps": true}
	regionMode := *regions > 0
	regionOnly := map[string]bool{"prefetch": true, "autoscale": true, "wan": true}
	regionOK := map[string]bool{"regions": true, "workflows": true, "gap": true, "trace": true}
	kmeansMode := *kmeans
	kmeansOnly := map[string]bool{"partitions": true, "centroids": true}
	kmeansOK := map[string]bool{"kmeans": true, "sites": true, "registry-net": true, "trace": true}
	var incompatible []string
	nodesSet, workflowsSet, gapSet := false, false, false
	sitesSet, registryNetSet := false, false
	fs.Visit(func(fl *flag.Flag) {
		nodesSet = nodesSet || fl.Name == "nodes"
		workflowsSet = workflowsSet || fl.Name == "workflows"
		gapSet = gapSet || fl.Name == "gap"
		sitesSet = sitesSet || fl.Name == "sites"
		registryNetSet = registryNetSet || fl.Name == "registry-net"
		switch {
		case regionMode && !regionOnly[fl.Name] && !regionOK[fl.Name]:
			incompatible = append(incompatible, "-"+fl.Name)
		case regionMode:
			// an allowed region-mode flag
		case kmeansMode && !kmeansOnly[fl.Name] && !kmeansOK[fl.Name]:
			incompatible = append(incompatible, "-"+fl.Name)
		case kmeansMode:
			// an allowed kmeans-mode flag
		case regionOnly[fl.Name] || kmeansOnly[fl.Name]:
			incompatible = append(incompatible, "-"+fl.Name)
		case *streamMode && !streamOnly[fl.Name] && !streamOK[fl.Name]:
			incompatible = append(incompatible, "-"+fl.Name)
		case !*streamMode && streamOnly[fl.Name]:
			incompatible = append(incompatible, "-"+fl.Name)
		case !*streamMode && *sites > 1 && fl.Name == "fail":
			incompatible = append(incompatible, "-"+fl.Name)
		case !*streamMode && *sites == 1 && (fl.Name == "cache-slots" || fl.Name == "registry-net" ||
			fl.Name == "gap" || fl.Name == "unplug-at" || fl.Name == "suite" || fl.Name == "apps" ||
			fl.Name == "guaranteed" || fl.Name == "deadline"):
			incompatible = append(incompatible, "-"+fl.Name)
		}
	})
	if len(incompatible) > 0 {
		mode := "-sites > 1"
		switch {
		case regionMode:
			mode = "-regions"
		case kmeansMode:
			mode = "-kmeans"
		case *streamMode:
			mode = "-stream"
		case *sites == 1:
			mode = "-sites 1"
		}
		return fmt.Errorf("serve: %s not supported with %s",
			strings.Join(incompatible, ", "), mode)
	}
	if kmeansMode {
		kmSites, kmNet := 0, "" // 0/"" → scenario defaults
		if sitesSet {
			kmSites = *sites
		}
		if registryNetSet {
			kmNet = *registryNet
		}
		return serveKmeans(kmSites, *partitions, *centroids, kmNet, *trace)
	}
	if regionMode {
		regionWorkflows, regionGap := 0, 0.0 // 0 → scenario defaults
		if workflowsSet {
			regionWorkflows = *workflows
		}
		if gapSet {
			regionGap = *gap
		}
		return serveRegions(*regions, regionWorkflows, regionGap,
			*prefetch, *autoscale, *wan, *trace)
	}
	if *streamMode {
		streamNodes := 0 // scenario default (1 compute node + cloudfpga0)
		if nodesSet {
			streamNodes = *nodes
		}
		return serveStream(streamNodes, *appList, *pipelines, *events,
			*rate, *arrival, *partial, *trace)
	}
	if *sites > 1 {
		if *appList != "" {
			*suite = true
		}
		gDeadline := 0.0
		if *guaranteed {
			gDeadline = *deadline
		}
		return serveFleet(*sites, *nodes, *cacheSlots, *workflows, *tenants,
			policy, *adaptive, *netName, *registryNet, *gap, *unplugAt, gDeadline, *trace, *suite, *appList)
	}
	var stack *netsim.Stack
	if *netName != "" {
		st, err := netsim.StackByName(*netName)
		if err != nil {
			return err
		}
		stack = &st
	}
	if *workflows < 1 || *tenants < 1 || *nodes < 1 {
		return fmt.Errorf("serve: workflows, tenants and nodes must be positive")
	}
	var failures []runtime.NodeFailure
	if *failNode != "" {
		parts := strings.SplitN(*failNode, "@", 2)
		f := runtime.NodeFailure{Node: parts[0], AtTime: 0.5}
		if len(parts) == 2 {
			if _, err := fmt.Sscanf(parts[1], "%g", &f.AtTime); err != nil {
				return fmt.Errorf("serve: bad -fail time %q", parts[1])
			}
		}
		failures = append(failures, f)
	}

	// Serial baseline: the same workflows planned one at a time and run
	// back-to-back — what the runtime did before it became concurrent.
	s := sdk.New(sdk.DefaultCluster(*nodes))
	for _, f := range failures {
		if s.Cluster.FindNode(f.Node) == nil {
			return fmt.Errorf("serve: -fail references unknown node %q", f.Node)
		}
	}
	ws := make([]*runtime.Workflow, *workflows)
	for i := range ws {
		ws[i] = sdk.SyntheticWorkflow(i)
	}
	serial, err := s.SerialMakespan(policy, ws...)
	if err != nil {
		return err
	}

	cfg := sdk.ServerConfig{
		Policy: policy, Failures: failures,
		Adaptive: *adaptive, Net: stack,
	}
	if *trace {
		cfg.Trace = func(ev runtime.Event) {
			fmt.Printf("  [%8.4fs] %-13s wf=%-12s task=%-8s node=%-10s %s\n",
				ev.Time, ev.Kind, ev.Workflow, ev.Task, ev.Node, ev.Detail)
		}
	}
	srv := s.NewServer(cfg)
	tenantName := func(i int) string { return fmt.Sprintf("tenant%02d", i%*tenants) }
	futs := make([]*runtime.Future, *workflows)
	for i := range futs {
		fut, err := srv.Submit(tenantName(i), "", sdk.SyntheticWorkflow(i))
		if err != nil {
			return err
		}
		futs[i] = fut
	}
	wallStart := time.Now()
	if err := srv.Start(); err != nil {
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
	stats := srv.Shutdown()
	wall := time.Since(wallStart)

	fmt.Printf("cluster    : %d compute nodes + cloudfpga0 (%d total)\n",
		*nodes, len(s.Cluster.Nodes))
	mode := "static"
	if *adaptive {
		mode = "adaptive"
	}
	fmt.Printf("workflows  : %d across %d tenants (policy %s, %s)\n",
		stats.Completed, len(stats.Tenants), policy, mode)
	fmt.Printf("serial     : %.3gs modelled, back-to-back\n", serial)
	fmt.Printf("concurrent : %.3gs modelled\n", stats.Makespan)
	if stats.Makespan > 0 {
		fmt.Printf("speedup    : %.2fx\n", serial/stats.Makespan)
	}
	fmt.Printf("transfers  : %d batched, %.1f MB moved\n", transfers, float64(moved)/1e6)
	var names []string
	for name := range stats.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := stats.Tenants[name]
		fmt.Printf("  %-10s : %d done, %d failed, last finish %.3gs%s\n",
			name, ts.Completed, ts.Failed, ts.LastFinish, tenantAdaptSummary(ts))
	}
	fmt.Printf("wall time  : %s\n", wall.Round(time.Millisecond))
	return nil
}

// serveFleet is `basecamp serve -sites N`: the same mixed E-fleet load
// served through the federation tier — N independent engine sites behind
// the fleet router, with bounded per-site bitstream caches and deploys
// priced over the registry fabric. With suite set, the served stream is
// the EVEREST application suite from the workload registry. A positive
// gDeadline submits every 4th workflow through the proven-bound admission
// class against that deadline (refusals degrade to best-effort).
func serveFleet(sites, nodes, cacheSlots, workflows, tenants int, policy runtime.Policy, adaptive bool, netName, registryNet string, gap, unplugAt, gDeadline float64, trace, suite bool, appList string) error {
	if workflows < 1 || tenants < 1 || nodes < 1 {
		return fmt.Errorf("serve: workflows, tenants and nodes must be positive")
	}
	sc := sdk.FleetScenario{
		Sites: sites, NodesPerSite: nodes, CacheSlots: cacheSlots,
		Tenants: tenants, Workflows: workflows, ArrivalGap: gap,
		UnplugAt: unplugAt,
		Net:      netName, RegistryNet: registryNet,
		Policy: policy, Adaptive: adaptive,
		SLO: 1.75,
	}
	if gDeadline > 0 {
		sc.GuaranteedEvery = 4
		sc.GuaranteedDeadline = gDeadline
	}
	if suite {
		sc.SLO = sdk.DefaultSuiteScenario().SLO
		sc.Apps = apps.Names()
		if appList != "" {
			sc.Apps = nil
			for _, name := range strings.Split(appList, ",") {
				sc.Apps = append(sc.Apps, strings.TrimSpace(name))
			}
		}
	}
	if trace {
		sc.Trace = func(ev fleet.Event) {
			fmt.Printf("  [%8.4fs] %-10s site=%-7s tenant=%-9s wf=%-14s bs=%-12s %s\n",
				ev.Time, ev.Kind, ev.Site, ev.Tenant, ev.Workflow, ev.Bitstream, ev.Detail)
		}
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}
	mode := "static"
	if adaptive {
		mode = "adaptive"
	}
	fmt.Printf("fleet      : %d sites x (%d compute nodes + cloudfpga0), cache %d slot(s)/site, %s\n",
		sites, nodes, cacheSlots, mode)
	workload := "mixed"
	if suite {
		workload = "app-suite [" + strings.Join(sc.Apps, " ") + "]"
	}
	fmt.Printf("workflows  : %d %s across %d tenants, arrivals every %.3gs modelled\n",
		workflows, workload, tenants, gap)
	fmt.Printf("completed  : %d (%d rejected), makespan %.4gs modelled\n",
		res.Completed, res.Rejected, res.Makespan)
	fmt.Printf("throughput : %.4g workflows/s modelled\n", res.Throughput)
	fmt.Printf("latency    : p50 %.4gs, p95 %.4gs, max %.4gs (SLO %.3gs met: %v)\n",
		res.P50, res.P95, res.Max, sc.SLO, res.SLOMet)
	if gDeadline > 0 {
		fmt.Printf("guaranteed : %d admitted / %d requested (rate %.2f) at deadline %.3gs; %d degraded to best-effort\n",
			res.GuaranteedAdmitted, res.GuaranteedAdmitted+res.GuaranteedRefused,
			res.GuaranteedAdmitRate, gDeadline, res.GuaranteedRefused)
		fmt.Printf("bounds     : %d violations, worst tightness %.3g (latency/bound; sound iff 0 violations)\n",
			res.BoundViolations, res.BoundTightness)
	}
	var appNames []string
	for name := range res.Apps {
		appNames = append(appNames, name)
	}
	sort.Strings(appNames)
	for _, name := range appNames {
		tl := res.Apps[name]
		fmt.Printf("  app %-8s : %2d done, p50 %.4gs, p95 %.4gs, max %.4gs\n",
			name, tl.Completed, tl.P50, tl.P95, tl.Max)
	}
	for _, s := range res.Stats.Fleet.Sites {
		fmt.Printf("  %-7s : %3d served, cache %d hit / %d miss, %d evict, %d redeploy, %d fallback, %.3gs deploying\n",
			s.Name, s.Served, s.CacheHits, s.CacheMisses, s.Evictions, s.Redeploys,
			s.FallbackDeploys, s.DeploySeconds)
	}
	return nil
}

// serveRegions is `basecamp serve -regions`: the app suite served
// through the hierarchical multi-region federation — a traffic wave
// rotating across geo-distributed regions over a modelled WAN, with
// background batch churn, proven-bound guaranteed admissions, and
// (unless -prefetch=false) forecast-driven bitstream prefetch staging
// each region's artifact store before the wave arrives.
func serveRegions(regions, workflows int, gap float64, prefetch, autoscale bool, wan string, trace bool) error {
	sc := sdk.DefaultRegionScenario()
	if regions > 0 {
		sc.Regions = regions
	}
	if workflows > 0 {
		sc.Workflows = workflows
	}
	if gap > 0 {
		sc.ArrivalGap = gap
	}
	sc.Prefetch = prefetch
	sc.Autoscale = autoscale
	if wan != "" {
		sc.WAN = wan
	}
	if trace {
		sc.Trace = func(ev region.Event) {
			fmt.Printf("  [%8.4fs] %-10s region=%-9s tenant=%-9s wf=%-14s app=%-8s %s\n",
				ev.Time, ev.Kind, ev.Region, ev.Tenant, ev.Workflow, ev.App, ev.Detail)
		}
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}
	wanName := sc.WAN
	if wanName == "" {
		wanName = "wan10g"
	}
	pf := "prefetch on"
	if !prefetch {
		pf = "prefetch off"
	}
	fmt.Printf("federation : %d regions x %d sites x (%d nodes + cloudfpga0), store %d slot(s)/region, %s over %s\n",
		sc.Regions, sc.SitesPerRegion, sc.NodesPerSite, sc.StoreSlots, pf, wanName)
	fmt.Printf("workflows  : %d app-suite [%s], wave blocks of %d every %.3gs modelled, batch every %d\n",
		sc.Workflows, strings.Join(sc.Apps, " "), sc.BlockSize, sc.ArrivalGap, sc.BatchEvery)
	fmt.Printf("completed  : %d (%d rejected), makespan %.4gs modelled\n",
		res.Completed, res.Rejected, res.Makespan)
	fmt.Printf("throughput : %.4g workflows/s modelled\n", res.Throughput)
	fmt.Printf("latency    : p50 %.4gs, p95 %.4gs, max %.4gs; tail p99 %.4gs, cold-start overhead p99 %.4gs\n",
		res.P50, res.P95, res.Max, res.TailP99, res.TailColdStartP99)
	fmt.Printf("guaranteed : %d admitted / %d requested (rate %.2f) at deadline %.3gs; %d degraded to best-effort\n",
		res.GuaranteedAdmitted, res.GuaranteedAdmitted+res.GuaranteedRefused,
		res.GuaranteedAdmitRate, sc.GuaranteedDeadline, res.GuaranteedRefused)
	fmt.Printf("bounds     : %d violations (sound iff 0)\n", res.BoundViolations)
	fmt.Printf("wan        : %d handoffs, %d cold serves, %d prefetch stages, %d warms, %d preemptions\n",
		res.Handoffs, res.ColdServes, res.PrefetchFetches, res.Warms, res.Preemptions)
	for _, r := range res.Stats.Regions {
		fmt.Printf("  %-9s : %3d served (%d guaranteed, %d batch), %d cold, %d fetch %.3gs wan, %d prefetch %.3gs, %d evict, %d sites active\n",
			r.Name, r.Served, r.Guaranteed, r.Batch, r.ColdServes,
			r.WANFetches, r.WANFetchSeconds, r.PrefetchFetches, r.PrefetchSeconds,
			r.StoreEvictions, r.ActiveSites)
	}
	return nil
}

// serveKmeans is `basecamp serve -kmeans`: the FPGA map-reduce k-means
// workload driven through the fleet's named data plane — point
// partitions scattered across WAN-federated sites, maps routed to their
// data by the placement-aware cost, only the per-cluster partial
// statistics crossing the fabric to the reduce.
func serveKmeans(sites, partitions, centroids int, registryNet string, trace bool) error {
	sc := sdk.DefaultKMeansScenario()
	if sites > 0 {
		sc.Sites = sites
	}
	if partitions > 0 {
		sc.Config.Partitions = partitions
	}
	if centroids > 0 {
		sc.Config.Centroids = centroids
	}
	if registryNet != "" {
		sc.RegistryNet = registryNet
	}
	if trace {
		sc.Trace = func(ev fleet.Event) {
			fmt.Printf("  [%8.4fs] %-10s site=%-7s tenant=%-9s wf=%-14s bs=%-12s %s\n",
				ev.Time, ev.Kind, ev.Site, ev.Tenant, ev.Workflow, ev.Bitstream, ev.Detail)
		}
	}
	res, err := sc.Run()
	if err != nil {
		return err
	}
	cfg := sc.Config
	fmt.Printf("fleet      : %d sites over %s, dataset stores site-local, kernels pre-warmed fleet-wide\n",
		sc.Sites, sc.RegistryNet)
	fmt.Printf("workload   : %d rounds x (%d map shards + 1 reduce), %d points x %d dims, %d centroids\n",
		sc.Rounds, cfg.Partitions, cfg.Points, cfg.Dims, cfg.Centroids)
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

// serveStream is `basecamp serve -stream`: the app suite served as
// long-lived streaming pipelines — open arrivals feeding windowed
// operators with backpressure, compiled kernels resident in FPGA
// partial-reconfiguration regions — for one run at a fixed rate,
// reporting sustained throughput, latency percentiles, per-pipeline
// outcomes, and per-device residency churn.
func serveStream(nodes int, appList string, pipelines, events int, rate float64, arrival string, partial, trace bool) error {
	sc := sdk.DefaultStreamScenario()
	sc.Nodes = nodes // 0 → scenario default
	if appList != "" {
		sc.Apps = nil
		for _, name := range strings.Split(appList, ",") {
			sc.Apps = append(sc.Apps, strings.TrimSpace(name))
		}
		sc.Pipelines = 0 // re-derive from the app list
	}
	if pipelines > 0 {
		sc.Pipelines = pipelines
	}
	if events > 0 {
		sc.Events = events
	}
	if rate > 0 {
		sc.Rate = rate
	}
	sc.Arrival = arrival
	sc.PartialReconfig = partial
	if trace {
		sc.Trace = func(ev stream.Event) {
			fmt.Printf("  [%10.6fs] %-7s pipe=%-10s stage=%-9s dev=%-11s %d ev\n",
				ev.Time, ev.Kind, ev.Pipeline, ev.Stage, ev.Device, ev.Events)
		}
	}
	srv, err := sdk.NewStreamServer(sc)
	if err != nil {
		return err
	}
	sc = srv.Scenario()
	fmt.Printf("stream     : %d pipelines over [%s], %d events each at %.4g ev/s, %s arrivals\n",
		sc.Pipelines, strings.Join(sc.Apps, " "), sc.Events, sc.Rate, sc.Arrival)
	fmt.Printf("cluster    : %d compute node(s) + cloudfpga0, partial reconfig %v\n",
		sc.Nodes, sc.PartialReconfig)
	st, err := srv.Run()
	if err != nil {
		return err
	}
	fmt.Printf("served     : %d of %d events (%d shed), %d windows, makespan %.4gs modelled\n",
		st.Done, st.Events, st.Shed, st.Windows, st.Makespan)
	fmt.Printf("throughput : %.4g events/s modelled\n", st.Throughput)
	fmt.Printf("latency    : p50 %.4gs, p99 %.4gs, max %.4gs (SLO %.3gs met: %v)\n",
		st.P50, st.P99, st.Max, sc.SLO, st.P99 <= sc.SLO)
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

// tenantAdaptSummary renders a tenant's adaptation stats, empty when the
// run had none (static mode without faults). Static runs with faults have
// reschedule/fallback counts but no variants; the variants clause is
// omitted then.
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
	return fmt.Sprintf(", %s%d resched, %d fallback",
		variants, ts.Reschedules, ts.Fallbacks)
}

// cmdAdapt runs the E-adapt comparison: the same FPGA-leaning workflows
// and mid-run faults (accelerator unplug + node slowdown) served twice,
// statically and adaptively, printing both makespans and the adaptation
// activity. With -compiled it runs the E-compile variant instead: the
// workload kernel is compiled source-to-schedule and the adaptive arm's
// tuners are seeded from the derived operating points.
func cmdAdapt(args []string) error {
	fs := flag.NewFlagSet("adapt", flag.ExitOnError)
	def := sdk.DefaultAdaptiveScenario()
	workflows := fs.Int("workflows", def.Workflows, "workflows to submit")
	nodes := fs.Int("nodes", def.Nodes, "compute nodes in the simulated cluster")
	fpgaNodes := fs.Int("fpga-nodes", def.FPGANodes, "nodes the bitstream is staged on")
	tenants := fs.Int("tenants", def.Tenants, "tenants sharing the cluster")
	slow := fs.Float64("slow", def.Slowdown, "load factor hitting the last compute node")
	faultAt := fs.Float64("fault-at", def.FaultAt, "modelled time the faults take effect")
	compiled := fs.Bool("compiled", false, "E-compile: serve a source-to-schedule compiled kernel instead of the hand-declared workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compiled {
		csc := sdk.DefaultCompiledScenario()
		csc.Workflows, csc.Nodes, csc.FPGANodes, csc.Tenants = *workflows, *nodes, *fpgaNodes, *tenants
		csc.Slowdown = *slow
		// -fault-at defaults to the E-adapt timing; only an explicit value
		// overrides the compiled scenario's own default.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "fault-at" {
				csc.FaultAt = *faultAt
			}
		})
		return runCompiledScenario(csc)
	}
	sc := sdk.AdaptiveScenario{
		Workflows: *workflows, Nodes: *nodes, FPGANodes: *fpgaNodes,
		Tenants: *tenants, Slowdown: *slow, FaultAt: *faultAt,
	}
	static, err := sc.Run(false)
	if err != nil {
		return err
	}
	adaptive, err := sc.Run(true)
	if err != nil {
		return err
	}
	fmt.Printf("scenario   : %d workflows, %d nodes (%d with FPGA), %d tenants\n",
		sc.Workflows, sc.Nodes, sc.FPGANodes, sc.Tenants)
	fmt.Printf("faults     : unplug FPGA of node00 + %.3gx slowdown of node%02d, from t=%.3gs\n",
		sc.Slowdown, sc.Nodes-1, sc.FaultAt)
	fmt.Printf("static     : %.4gs modelled\n", static.Makespan)
	fmt.Printf("adaptive   : %.4gs modelled\n", adaptive.Makespan)
	if adaptive.Makespan > 0 {
		fmt.Printf("speedup    : %.2fx\n", static.Makespan/adaptive.Makespan)
	}
	var names []string
	for name := range adaptive.Stats.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-10s : %s\n", name,
			strings.TrimPrefix(tenantAdaptSummary(adaptive.Stats.Tenants[name]), ", "))
	}
	fmt.Println("node health (adaptive run):")
	for _, h := range adaptive.Health {
		fmt.Printf("  %-10s : %2d tasks, ewma %.3gs, load est %.2fx, devices %d/%d\n",
			h.Node, h.Tasks, h.EWMALatency, h.SlowdownEst, h.DevicesOnline, h.DevicesTotal)
	}
	return nil
}

// runCompiledScenario serves the E-compile comparison and prints it.
func runCompiledScenario(sc sdk.CompiledScenario) error {
	c, err := sc.Compile()
	if err != nil {
		return err
	}
	static, err := sc.RunWith(c, false)
	if err != nil {
		return err
	}
	adaptive, err := sc.RunWith(c, true)
	if err != nil {
		return err
	}
	fmt.Printf("scenario   : %d workflows of compiled kernel %q, %d nodes (%d with FPGA), %d tenants, %s transfers\n",
		sc.Workflows, c.KernelName, sc.Nodes, sc.FPGANodes, sc.Tenants, sc.Net)
	fmt.Printf("hls        : %s\n", c.Report.String())
	fmt.Println("variants   : (derived from the HLS schedule + CPU cost model)")
	for _, row := range c.Summary() {
		fmt.Printf("  %s\n", row)
	}
	fmt.Printf("faults     : unplug FPGA of node00 + %.3gx slowdown of node%02d, from t=%.3gs\n",
		sc.Slowdown, sc.Nodes-1, sc.FaultAt)
	fmt.Printf("static     : %.4gs modelled (hand-declared path)\n", static.Makespan)
	fmt.Printf("adaptive   : %.4gs modelled (compiled variants)\n", adaptive.Makespan)
	if adaptive.Makespan > 0 {
		fmt.Printf("speedup    : %.2fx\n", static.Makespan/adaptive.Makespan)
	}
	var names []string
	for name := range adaptive.Stats.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-10s : %s\n", name,
			strings.TrimPrefix(tenantAdaptSummary(adaptive.Stats.Tenants[name]), ", "))
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

func cmdBench() error {
	for _, exp := range experiments.All() {
		tab, err := exp()
		if err != nil {
			return err
		}
		fmt.Println(tab.String())
	}
	return nil
}
