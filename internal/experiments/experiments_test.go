package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"everest/internal/runtime"
)

// tableDigests pins every experiment's printed table: the first 16 hex
// digits of the sha256 of its String(). A change that moves a table
// re-records its digest here and says why.
var tableDigests = map[string]string{
	"E1":  "10ad38c62034b714",
	"E2":  "529e2f154aca1358",
	"E3":  "fe2830af3b03cfc4",
	"E4":  "4da32d4002c471db",
	"E5":  "f44b3044926033a6",
	"E6":  "253120dd42d1648c",
	"E7":  "e615d7aac4b5664b",
	"E8":  "7bdbb101413f943c",
	"E9":  "2b080c4ba9915a81",
	"E10": "236a7a8945d32ffa",
	"E11": "287a7c35159f5636",
	"E12": "5bcfbae640a95573",
	"E13": "58a330ff70c4f966",
	"E14": "e9aaf43741fb7c75",
}

// TestAllExperimentsRun executes every experiment, checks that each
// produces a non-empty table, and holds each table to its pinned digest.
func TestAllExperimentsRun(t *testing.T) {
	exps := All()
	if len(exps) != len(tableDigests) {
		t.Fatalf("%d experiments, %d pinned digests", len(exps), len(tableDigests))
	}
	for i, exp := range exps {
		tab, err := exp()
		if err != nil {
			t.Fatalf("experiment %d (%s): %v", i+1, tab.ID, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
		out := tab.String()
		if !strings.Contains(out, tab.ID) {
			t.Errorf("%s: String() must include the experiment ID", tab.ID)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]; got != tableDigests[tab.ID] {
			t.Errorf("%s table digest %s, want %s", tab.ID, got, tableDigests[tab.ID])
		}
	}
}

// The shape assertions below encode the paper's qualitative claims: who
// wins, roughly by what factor, where crossovers fall (see EXPERIMENTS.md).

func TestE1Shape(t *testing.T) {
	tab, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["max_diff"] > 1e-12 {
		t.Errorf("EKL kernel must match the loop reference exactly, diff %g", tab.KeyMetrics["max_diff"])
	}
	if tab.KeyMetrics["ekl_statements"] > 10 {
		t.Errorf("EKL kernel must stay Fig.3-compact, got %g statements", tab.KeyMetrics["ekl_statements"])
	}
}

func TestE2Shape(t *testing.T) {
	tab, err := E2()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["affine_for"] < 5 {
		t.Errorf("affine lowering must materialize the full loop nest, got %g loops", tab.KeyMetrics["affine_for"])
	}
}

func TestE3Shape(t *testing.T) {
	tab, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	full := tab.KeyMetrics["speedup_+packing"]
	if full < 2 {
		t.Errorf("full Olympus ladder speedup %gx, want >= 2x", full)
	}
	if tab.KeyMetrics["speedup_+replicate-lanes"] < tab.KeyMetrics["speedup_+double-buffer"]*0.99 {
		t.Error("replication step must not regress")
	}
}

func TestE4Shape(t *testing.T) {
	tab, err := E4()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["lut_fixed<4,12>"] >= tab.KeyMetrics["lut_f64"] {
		t.Error("fixed16 must use fewer LUTs than fp64")
	}
	if tab.KeyMetrics["err_f64"] != 0 {
		t.Error("fp64 is the exact baseline")
	}
	if tab.KeyMetrics["err_bf16"] <= tab.KeyMetrics["err_f32"] {
		t.Error("bf16 must be less accurate than f32")
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5()
	if err != nil {
		t.Fatal(err)
	}
	vf := tab.KeyMetrics["overhead_vf-passthrough"]
	if vf <= 0 || vf > 0.05 {
		t.Errorf("VF passthrough overhead %g, want near-native (0,5%%]", vf)
	}
	if tab.KeyMetrics["overhead_virtio"] <= vf {
		t.Error("virtio must cost more than VF passthrough")
	}
}

func TestE6Shape(t *testing.T) {
	tab, err := E6()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"chain", "fork-join", "wrf-ensemble"} {
		if tab.KeyMetrics[kind+"_heft"] > tab.KeyMetrics[kind+"_fifo"]*1.001 {
			t.Errorf("%s: HEFT (%g) must not lose to FIFO (%g)", kind,
				tab.KeyMetrics[kind+"_heft"], tab.KeyMetrics[kind+"_fifo"])
		}
	}
	if infl := tab.KeyMetrics["recovery_inflation"]; infl < 1 || infl > 3 {
		t.Errorf("failure recovery inflation %g outside [1,3]", infl)
	}
}

func TestE7Shape(t *testing.T) {
	tab, err := E7()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"initial_fpga", "degraded_cpu16", "recovered_fpga"} {
		if tab.KeyMetrics[key] != 1 {
			t.Errorf("autotuner adaptation failed at %q", key)
		}
	}
	run, err := adaptLoop()
	if err != nil {
		t.Fatal(err)
	}
	// AttachHypervisor refuses a node the engine does not serve, but an
	// Apply that changes no attachment is silent, so only the engine's own
	// trace shows that each hot-plug call moved the device.
	unplugs, plugs := run.traced[runtime.EventDeviceUnplug], run.traced[runtime.EventDevicePlug]
	if unplugs != 1 || plugs != 1 {
		t.Errorf("engine traced %d device unplugs and %d plugs, want 1 and 1", unplugs, plugs)
	}
	steady, unplugged := run.phases[0].meanSpan, run.phases[1].meanSpan
	if unplugged <= steady {
		t.Errorf("unplugged mean span %gs must exceed the steady %gs", unplugged, steady)
	}
	// One node serves every task in sequence, so a phase's boundary event,
	// stamped at the latest served makespan, precedes all of its tasks.
	for _, ph := range run.phases {
		for _, s := range ph.scheds {
			for _, a := range s.Assignments {
				if a.Start < ph.at {
					t.Errorf("%s: task %s starts at %gs, before the %s at %gs", ph.name, a.Task, a.Start, ph.event, ph.at)
				}
			}
		}
	}
}

func TestE8Shape(t *testing.T) {
	tab, err := E8()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["tpe_f1"] < 0.75 {
		t.Errorf("TPE best F1 %g too low", tab.KeyMetrics["tpe_f1"])
	}
	if tab.KeyMetrics["tpe_f1"] < tab.KeyMetrics["random_f1"]-1e-9 {
		t.Errorf("TPE (%g) must match or beat random (%g) at equal budget",
			tab.KeyMetrics["tpe_f1"], tab.KeyMetrics["random_f1"])
	}
}

func TestE9Shape(t *testing.T) {
	tab, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["speedup_100000"] <= 1 {
		t.Errorf("FPGA must win at 100k samples, speedup %g", tab.KeyMetrics["speedup_100000"])
	}
	if tab.KeyMetrics["speedup_100000"] <= tab.KeyMetrics["speedup_1000"] {
		t.Error("speedup must grow with sample count (transfer amortization)")
	}
}

func TestE10Shape(t *testing.T) {
	tab, err := E10()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["proj_fpga_10"] != 0 {
		t.Error("tiny batches must stay on CPU")
	}
	if tab.KeyMetrics["proj_fpga_100000"] != 1 {
		t.Error("large batches must offload projection to FPGA")
	}
}

func TestE11Shape(t *testing.T) {
	tab, err := E11()
	if err != nil {
		t.Fatal(err)
	}
	frac := tab.KeyMetrics["radiation_fraction"]
	if frac < 0.2 || frac > 0.45 {
		t.Errorf("radiation fraction %g outside the paper's ~30%% regime", frac)
	}
	if s := tab.KeyMetrics["step_speedup"]; s < 1.2 || s > 2 {
		t.Errorf("Amdahl step speedup %g outside plausible range", s)
	}
	if tab.KeyMetrics["analysis_gain"] <= 1 {
		t.Error("assimilation must improve the analysis")
	}
	if tab.KeyMetrics["ensemble_gain"] <= 1 {
		t.Error("ensemble mean must beat the average member")
	}
}

func TestE12Shape(t *testing.T) {
	tab, err := E12()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["krr_mae"] >= tab.KeyMetrics["persistence_mae"] {
		t.Error("KRR must beat persistence")
	}
	if tab.KeyMetrics["krr_mae"] >= tab.KeyMetrics["physical_mae"] {
		t.Error("KRR must beat the raw physical model")
	}
}

func TestE13Shape(t *testing.T) {
	tab, err := E13()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["corrected_logerr"] >= tab.KeyMetrics["raw_logerr"]*0.7 {
		t.Errorf("ML correction must cut log error by >30%%: %g -> %g",
			tab.KeyMetrics["raw_logerr"], tab.KeyMetrics["corrected_logerr"])
	}
}

func TestE14Shape(t *testing.T) {
	tab, err := E14()
	if err != nil {
		t.Fatal(err)
	}
	if tab.KeyMetrics["match_accuracy"] < 0.8 {
		t.Errorf("map matching accuracy %g < 0.8", tab.KeyMetrics["match_accuracy"])
	}
	if p := tab.KeyMetrics["gmm_pred"]; p < 13 || p > 19 {
		t.Errorf("GMM conditional prediction %g, want ~16", p)
	}
	if tab.KeyMetrics["cnn_mae"] >= tab.KeyMetrics["persistence_mae"] {
		t.Error("CNN must beat persistence")
	}
	if tab.KeyMetrics["ptdr_p95_ratio"] <= 1 {
		t.Error("PTDR P95 must exceed the median")
	}
}
