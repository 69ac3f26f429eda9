package sdk

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"everest/internal/fleet"
	rt "everest/internal/runtime"
)

// renderTraces wires both trace streams — fleet events and the per-site
// engine events — into one byte stream, then runs the scenario. The fleet
// serializes the two callbacks under a single mutex, so the rendered bytes
// are the exact interleaving the run produced.
func renderTraces(t *testing.T, sc FleetScenario, run func(sc FleetScenario) (FleetResult, error)) []byte {
	t.Helper()
	var buf bytes.Buffer
	sc.Trace = func(ev fleet.Event) {
		fmt.Fprintf(&buf, "F %d %s %s %s %s %.9f %s\n",
			ev.Kind, ev.Site, ev.Tenant, ev.Workflow, ev.Bitstream, ev.Time, ev.Detail)
	}
	sc.EngineTrace = func(site string, ev rt.Event) {
		fmt.Fprintf(&buf, "E %s %d %s %s %s %s %.9f %s\n",
			site, ev.Kind, ev.Workflow, ev.Tenant, ev.Task, ev.Node, ev.Time, ev.Detail)
	}
	res, err := run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("scenario completed no workflows; trace proves nothing")
	}
	if buf.Len() == 0 {
		t.Fatal("no trace events captured")
	}
	return buf.Bytes()
}

// atGOMAXPROCS runs fn with the scheduler width pinned to n.
func atGOMAXPROCS(n int, fn func() []byte) []byte {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// TestFleetScenarioDeterministicTrace pins the PR-6 determinism contract:
// the merged fleet+engine trace stream of the E-fleet scenario must be
// byte-identical whether the scenario runs on one CPU or eight. The heap
// tie-break (modelled time,
// then workflow id, then task name, then queue index) plus submit-and-wait
// serving leaves the scheduler no freedom to reorder observable events.
// CI runs this under -race, so a racy shortcut in the hot path fails even
// when the bytes happen to match.
func TestFleetScenarioDeterministicTrace(t *testing.T) {
	sc := DefaultFleetScenario()
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc FleetScenario) (FleetResult, error) { return sc.RunWith(c) }
	ref := atGOMAXPROCS(1, func() []byte { return renderTraces(t, sc, run) })
	for _, procs := range []int{8, 1} {
		got := atGOMAXPROCS(procs, func() []byte { return renderTraces(t, sc, run) })
		if !bytes.Equal(ref, got) {
			t.Fatalf("trace stream diverged at GOMAXPROCS=%d (%d vs %d bytes):\n%s",
				procs, len(ref), len(got), firstDiff(ref, got))
		}
	}
}

// TestAppSuiteDeterministicTrace repeats the byte-identical check over the
// application-suite workload (weather/traffic/energy via the registry),
// which exercises the compiled kernels and per-app routing paths the
// default mix does not.
func TestAppSuiteDeterministicTrace(t *testing.T) {
	sc := DefaultSuiteScenario()
	sc.Workflows = 24 // enough to cycle every app; keeps -race runtime sane
	suite, err := sc.BuildSuite()
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc FleetScenario) (FleetResult, error) { return sc.RunSuite(suite) }
	ref := atGOMAXPROCS(1, func() []byte { return renderTraces(t, sc, run) })
	got := atGOMAXPROCS(8, func() []byte { return renderTraces(t, sc, run) })
	if !bytes.Equal(ref, got) {
		t.Fatalf("suite trace diverged across GOMAXPROCS (%d vs %d bytes):\n%s",
			len(ref), len(got), firstDiff(ref, got))
	}
}

// firstDiff renders the first line where two trace streams disagree.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("streams are prefixes of each other (len %d vs %d lines)", len(la), len(lb))
}
