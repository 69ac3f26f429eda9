package variants_test

import (
	"testing"

	"everest/internal/apps"
	"everest/internal/ekl"
	"everest/internal/traffic"
	"everest/internal/variants"
)

// BenchmarkCompilePipeline times CompileEKL end to end — parse and check,
// the reference interpretation inside ekl.Lower, the MLIR passes, HLS
// scheduling, system generation and the operating points — for each
// built-in kernel at the binding it is compiled against. The k-means
// kernels use the kmeans-data workload's shape (8 partitions of 8192
// points, 16 dims, 8 centroids), so their sum is that workload's set-up.
// Wall-clock only: no BENCH_*.json gates it.
func BenchmarkCompilePipeline(b *testing.B) {
	type kernel struct {
		name    string
		src     string
		binding ekl.Binding
	}
	var ks []kernel
	for _, name := range variants.ExampleNames() {
		src, binding, err := variants.ExampleKernel(name)
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, kernel{name, src, binding})
	}
	kmeans := map[string]int{"N": 8192, "D": 16, "K": 8, "P": 8}
	for _, src := range []string{apps.KMeansAssignEKL(), apps.KMeansPartialEKL(), apps.KMeansUpdateEKL()} {
		k, err := ekl.ParseKernel(src)
		if err != nil {
			b.Fatal(err)
		}
		ks = append(ks, kernel{k.Name, src, variants.SynthesizeBinding(k, kmeans)})
	}
	net := traffic.GridNetwork(6, 6, 200, 1)
	trip, err := traffic.SimulateTrip(net, 7, 10, 10, 80)
	if err != nil {
		b.Fatal(err)
	}
	ks = append(ks, kernel{"traffic_projection", traffic.ProjectionEKL(), traffic.ProjectionBinding(net, trip.Points)})

	for _, k := range ks {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := variants.CompileEKL(k.src, k.binding, variants.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
