package fleet_test

import (
	"fmt"

	"everest/internal/fleet"
	"everest/internal/hls"
	"everest/internal/platform"
	"everest/internal/runtime"
)

// Example demonstrates fleet routing: two federated sites serve three
// workflows, and the router keeps a tenant's FPGA work where its
// bitstream is already resident (affinity plus deploy-cost awareness)
// while pure-software work lands on the idle site. Modelled-time serving
// makes the routing decisions and counters exactly reproducible.
func Example() {
	bs := platform.Bitstream{
		ID: "bs-krr", Kernel: "krr", Target: "alveo-u55c",
		Report: hls.Report{
			LatencyCycle: 1 << 16, II: 1, IterLatency: 8,
			Resources: hls.Resources{LUT: 20000, FF: 24000, DSP: 32, BRAM: 16},
			ClockMHz:  300,
		},
		Config: platform.SystemConfig{
			Replicas: 2, BusWidthBits: 512, Lanes: 4, PackedElements: 8,
			DoubleBuffered: true, PLMBytes: 1 << 16,
		},
		ElemBits: 32,
	}
	reg := platform.NewRegistry()
	if err := reg.Put(bs); err != nil {
		panic(err)
	}

	f, err := fleet.New(reg, fleet.Config{
		Sites: 2,
		NewCluster: func(site int) *platform.Cluster {
			return platform.NewCluster(platform.NewNode("node00",
				platform.XeonModel(), platform.AlveoU55C()))
		},
	})
	if err != nil {
		panic(err)
	}
	if err := f.Start(); err != nil {
		panic(err)
	}

	accelerated := func() *runtime.Workflow {
		w := runtime.NewWorkflow()
		if err := w.Submit(runtime.TaskSpec{
			Name: "compute", Flops: 2e12, InputBytes: 1 << 20,
			NeedsFPGA: true, BitstreamID: bs.ID,
		}); err != nil {
			panic(err)
		}
		return w
	}
	software := runtime.NewWorkflow()
	if err := software.Submit(runtime.TaskSpec{Name: "only", Flops: 5e9}); err != nil {
		panic(err)
	}

	// Two accelerated workflows from one tenant, then a software-only
	// workflow from another tenant that arrives while the first site's
	// modelled timeline is still busy.
	for i, req := range []fleet.Request{
		{Tenant: "alpha", Name: "krr-a", Workflow: accelerated()},
		{Tenant: "alpha", Name: "krr-b", Workflow: accelerated()},
		{Tenant: "beta", Name: "soft", Workflow: software},
	} {
		req.Arrival = float64(i) * 0.01
		t, err := f.Submit(req)
		if err != nil {
			panic(err)
		}
		res, err := t.Wait()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s/%s -> %s\n", req.Tenant, req.Name, res.Site)
	}
	stats := f.Shutdown()
	s0 := stats.Sites[0]
	fmt.Printf("site00: %d served, cache %d hit / %d miss\n",
		s0.Served, s0.CacheHits, s0.CacheMisses)
	// Output:
	// alpha/krr-a -> site00
	// alpha/krr-b -> site00
	// beta/soft -> site01
	// site00: 2 served, cache 1 hit / 1 miss
}
