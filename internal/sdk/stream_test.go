package sdk

import (
	"bytes"
	"fmt"
	"testing"

	"everest/internal/stream"
)

// streamTestServer builds one shared StreamServer for the package's stream
// tests: compiling the suite dominates the test cost, the serving runs are
// cheap, and RunAt builds a fresh cluster per run so tests stay isolated.
var streamTestServer *StreamServer

func testStreamServer(t *testing.T, events int) *StreamServer {
	t.Helper()
	if streamTestServer == nil {
		s, err := NewStreamServer(DefaultStreamScenario())
		if err != nil {
			t.Fatal(err)
		}
		streamTestServer = s
	}
	s := *streamTestServer
	s.sc.Events = events
	return &s
}

func TestStreamScenarioDefaults(t *testing.T) {
	sc := StreamScenario{}.withDefaults()
	def := DefaultStreamScenario()
	def.PartialReconfig = false // the only non-zero-default knob
	if fmt.Sprintf("%+v", sc) != fmt.Sprintf("%+v", def) {
		t.Fatalf("zero-value defaults drifted from DefaultStreamScenario:\n%+v\n%+v", sc, def)
	}
}

func TestStreamServerServesInsideSLO(t *testing.T) {
	s := testStreamServer(t, 20000)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != int64(4*20000) {
		t.Fatalf("events = %d, want %d", st.Events, 4*20000)
	}
	if st.Done != st.Events || st.Shed != 0 {
		t.Fatalf("done=%d shed=%d of %d: the default rate should be inside capacity", st.Done, st.Shed, st.Events)
	}
	if st.P99 > s.sc.SLO {
		t.Fatalf("p99 = %gs exceeds the %gs SLO at the default rate", st.P99, s.sc.SLO)
	}
	if st.Swaps != 0 {
		t.Fatalf("default scenario (partial reconfig on) paid %d swaps, want 0", st.Swaps)
	}
	if len(st.Pipelines) != 4 {
		t.Fatalf("pipelines = %d, want 4", len(st.Pipelines))
	}
	tenants := map[string]bool{}
	for _, p := range st.Pipelines {
		tenants[p.Tenant] = true
	}
	if !tenants["guaranteed"] || !tenants["besteffort"] {
		t.Fatalf("tenant classes missing: %v", tenants)
	}
}

func TestStreamSaturateFindsTheKnee(t *testing.T) {
	s := testStreamServer(t, 20000)
	points, best, err := s.Saturate([]float64{2000, 4000, 12000})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3", len(points))
	}
	if !points[0].SLOMet || !points[1].SLOMet {
		t.Fatalf("under-capacity rungs should meet the SLO: %+v", points[:2])
	}
	if points[2].SLOMet {
		t.Fatalf("the 12000 ev/s rung should blow the SLO: %+v", points[2])
	}
	if best.Rate != 4000 {
		t.Fatalf("best rung = %+v, want the 4000 ev/s rung", best)
	}
	if best.Throughput < 15000 {
		t.Fatalf("sustained throughput = %g, want ~16000 ev/s across 4 pipelines", best.Throughput)
	}
}

// TestStreamSaturateRejectsBadRates: a non-positive rate would be served
// at the arrival process's 1 ev/s floor under the wrong label, and a
// duplicate rung only re-measures itself, so both are input errors.
func TestStreamSaturateRejectsBadRates(t *testing.T) {
	s := testStreamServer(t, 5000)
	for _, rates := range [][]float64{{0, 4000}, {-1000}, {4000, 4000}} {
		if _, _, err := s.Saturate(rates); err == nil {
			t.Errorf("rate ladder %v accepted", rates)
		}
	}
}

func TestStreamSwapWin(t *testing.T) {
	s := testStreamServer(t, 20000)
	on, off, err := s.SwapWin()
	if err != nil {
		t.Fatal(err)
	}
	if on.Swaps != 0 {
		t.Fatalf("partial reconfig paid %d swaps, want 0 (all kernels resident)", on.Swaps)
	}
	if off.Swaps < 10 || off.SwapSeconds <= 0 {
		t.Fatalf("whole-device churn = %d swaps / %gs, want substantial", off.Swaps, off.SwapSeconds)
	}
	if on.P99 >= off.P99 || on.Throughput <= off.Throughput {
		t.Fatalf("no swap win: on p99=%g thr=%g vs off p99=%g thr=%g",
			on.P99, on.Throughput, off.P99, off.Throughput)
	}
	if s.sc.PartialReconfig != DefaultStreamScenario().PartialReconfig {
		t.Fatalf("SwapWin must restore the scenario's PartialReconfig setting")
	}
}

// renderStreamTrace serves a reduced E-stream scenario with every event
// traced and returns the rendered byte stream plus the headline stats
// line. Bursty and diurnal arrivals, both overload policies, and partial
// reconfiguration are all in play, so the bytes cover the full streaming
// path.
func renderStreamTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := testStreamServer(t, 20000)
	s.sc.Arrival = "bursty"
	s.sc.Rate = 6000 // past the bottleneck stage: backpressure and shedding engage
	s.sc.Trace = func(ev stream.Event) {
		fmt.Fprintf(&buf, "%.9f %s %s/%s %s %d\n",
			ev.Time, ev.Kind, ev.Pipeline, ev.Stage, ev.Device, ev.Events)
	}
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "done=%d shed=%d windows=%d p50=%.9f p99=%.9f swaps=%d\n",
		st.Done, st.Shed, st.Windows, st.P50, st.P99, st.Swaps)
	if buf.Len() == 0 {
		t.Fatal("no stream trace captured")
	}
	return buf.Bytes()
}

// TestStreamDeterministicTrace extends the PR-6 determinism contract to
// the streaming tier: the full window-level trace of an E-stream run —
// arrivals, closes, sheds, swaps, completions — must be byte-identical
// whether Go runs the engine on one CPU or eight. CI runs this under
// -race.
func TestStreamDeterministicTrace(t *testing.T) {
	ref := atGOMAXPROCS(1, func() []byte { return renderStreamTrace(t) })
	for _, procs := range []int{8, 1} {
		got := atGOMAXPROCS(procs, func() []byte { return renderStreamTrace(t) })
		if !bytes.Equal(ref, got) {
			t.Fatalf("stream trace diverged at GOMAXPROCS=%d (%d vs %d bytes):\n%s",
				procs, len(ref), len(got), firstDiff(ref, got))
		}
	}
}
