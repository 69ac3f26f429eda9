package stream_test

import (
	"testing"

	"everest/internal/sdk"
	"everest/internal/stream"
)

// BenchmarkStreamEngine measures the stream event loop alone. One op is
// one source event of sdk.DefaultStreamScenario's feed (four
// traffic/energy pipelines, Block and Shed tenants alternating, partial
// reconfiguration on, at the default rate), served from window admission
// through the last stage, so ns/op is ns per event. The b.N events are
// split evenly across the pipelines (rounded up), so -benchtime 1000000x
// serves the BENCH_7 million-event feed. Compiling the apps and building
// the engine stay outside the timer.
func BenchmarkStreamEngine(b *testing.B) {
	sc := sdk.DefaultStreamScenario()
	sc.Events = (b.N + sc.Pipelines - 1) / sc.Pipelines
	srv, err := sdk.NewStreamServer(sc)
	if err != nil {
		b.Fatal(err)
	}
	e, err := stream.New(stream.Config{
		Cluster:         sdk.DefaultCluster(sc.Nodes),
		PartialReconfig: sc.PartialReconfig,
	}, srv.Pipelines(sc.Rate))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	st, err := e.Run()
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if st.Done+st.Shed != st.Events {
		b.Fatalf("served %d and shed %d of %d events", st.Done, st.Shed, st.Events)
	}
}
