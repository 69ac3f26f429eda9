package apps

import (
	"reflect"
	"strings"
	"testing"

	"everest/internal/runtime"
)

// builtSuite caches one compiled suite across the package's tests (the
// compile flow is deterministic, so sharing is safe).
var builtSuite *Suite

func suite(t *testing.T) *Suite {
	t.Helper()
	if builtSuite == nil {
		s, err := BuildSuite(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		builtSuite = s
	}
	return builtSuite
}

func app(t *testing.T, name string) *App {
	t.Helper()
	for _, a := range suite(t).Apps {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("suite has no app %q", name)
	return nil
}

// dagShape renders a workflow as "task<-dep,dep" rows in submission order.
func dagShape(w *runtime.Workflow) []string {
	var rows []string
	for _, name := range w.Tasks() {
		task, _ := w.Get(name)
		rows = append(rows, name+"<-"+strings.Join(task.Deps, ","))
	}
	return rows
}

// TestGoldenDAGShapes pins each application's DAG: stage names and
// dependency structure are part of the registry's contract with the
// serving stack and the docs.
func TestGoldenDAGShapes(t *testing.T) {
	golden := map[string][]string{
		"energy": {
			"featurize<-",
			"krr<-featurize",
			"infer<-featurize",
			"detect<-krr,infer",
			"publish<-detect",
		},
		"traffic": {
			"ingest<-",
			"projection<-ingest",
			"build_trellis<-ingest,projection",
			"viterbi<-build_trellis",
			"interpolate<-ingest,projection,viterbi",
		},
		"weather": {
			"assim<-",
			"dyn0<-assim",
			"rad0<-dyn0",
			"dyn1<-assim",
			"rad1<-dyn1",
			"dyn2<-assim",
			"rad2<-dyn2",
			"reduce<-rad0,rad1,rad2",
		},
	}
	for name, want := range golden {
		got := dagShape(app(t, name).Workflow(0))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s DAG = %v, want %v", name, got, want)
		}
	}
}

// TestCompiledStagesDeriveFromCompilation is the no-hand-declared-latency
// acceptance check: every accelerable stage's task spec must carry
// exactly the compiled kernel's workload model and bitstream, and every
// stage kernel must have derived software and fpga operating points.
func TestCompiledStagesDeriveFromCompilation(t *testing.T) {
	for _, a := range suite(t).Apps {
		if len(a.Kernels) == 0 {
			t.Errorf("app %s has no accelerable stage", a.Name)
			continue
		}
		w := a.Workflow(0)
		for _, sk := range a.Kernels {
			task, ok := w.Get(sk.Stage)
			if !ok {
				t.Errorf("%s: accelerable stage %q missing from DAG", a.Name, sk.Stage)
				continue
			}
			c := sk.Compiled
			if !task.NeedsFPGA || task.BitstreamID != c.Design.Bitstream.ID {
				t.Errorf("%s/%s: task does not request the compiled bitstream (%+v)", a.Name, sk.Stage, task)
			}
			if task.Flops != c.Flops || task.InputBytes != c.InputBytes || task.OutputBytes != c.OutputBytes {
				t.Errorf("%s/%s: task workload (%g, %d, %d) != compiled (%g, %d, %d)",
					a.Name, sk.Stage, task.Flops, task.InputBytes, task.OutputBytes,
					c.Flops, c.InputBytes, c.OutputBytes)
			}
			for _, v := range []string{runtime.VariantCPU1.String(), runtime.VariantCPU16.String(), runtime.VariantFPGA.String()} {
				if p, ok := c.Point(v); !ok || p.LatencySeconds <= 0 {
					t.Errorf("%s/%s: operating point %s not derived", a.Name, sk.Stage, v)
				}
			}
		}
		vs := a.Variants()
		if len(vs) != 3 {
			t.Errorf("%s: merged variants = %v, want cpu1/cpu16/fpga", a.Name, vs)
		}
		if got := a.Workflow(0).Variants(); len(got) != len(vs) {
			t.Errorf("%s: workflow does not carry the merged variants", a.Name)
		}
	}
}

// TestPerStageBitstreamIdentity: the energy DAG carries two distinct
// bitstreams (KRR and the ONNX net), and the suite's registry set has one
// bitstream per compiled kernel with no collisions.
func TestPerStageBitstreamIdentity(t *testing.T) {
	e := app(t, "energy")
	bss := e.Bitstreams()
	if len(bss) != 2 {
		t.Fatalf("energy bitstreams = %d, want 2 distinct", len(bss))
	}
	krr, _ := e.Kernel("krr")
	mlp, _ := e.Kernel("infer")
	if krr == nil || mlp == nil {
		t.Fatal("energy accelerable stages missing")
	}
	w := e.Workflow(0)
	kt, _ := w.Get("krr")
	it, _ := w.Get("infer")
	if kt.BitstreamID == it.BitstreamID {
		t.Fatal("krr and infer must request distinct bitstreams")
	}
	// Suite-wide: 4 compiled kernels -> 4 distinct bitstreams.
	if got := len(suite(t).Bitstreams()); got != 4 {
		t.Fatalf("suite bitstreams = %d, want 4", got)
	}
}

// TestSuiteInterleaveDeterministic: the mixed stream is a pure function
// of the submission index — same apps, same DAGs, same task specs on
// every call — which is what makes fleet serving exactly reproducible.
func TestSuiteInterleaveDeterministic(t *testing.T) {
	s := suite(t)
	wantOrder := []string{"energy", "traffic", "weather", "energy", "traffic", "weather"}
	for i, want := range wantOrder {
		a, w := s.Workflow(i)
		if a.Name != want {
			t.Fatalf("Workflow(%d) app = %s, want %s", i, a.Name, want)
		}
		a2, w2 := s.Workflow(i)
		if a2 != a {
			t.Fatalf("Workflow(%d) app differs across calls", i)
		}
		if !reflect.DeepEqual(dagShape(w), dagShape(w2)) {
			t.Fatalf("Workflow(%d) DAG differs across calls", i)
		}
		for _, name := range w.Tasks() {
			t1, _ := w.Get(name)
			t2, _ := w2.Get(name)
			if !reflect.DeepEqual(t1, t2) {
				t.Fatalf("Workflow(%d) task %s differs across calls: %+v vs %+v", i, name, t1, t2)
			}
		}
	}
	// Per-instance variation: the same app at different indices varies
	// software weight but keeps the DAG shape.
	a0, w0 := s.Workflow(0)
	_, w3 := s.Workflow(3)
	if !reflect.DeepEqual(dagShape(w0), dagShape(w3)) {
		t.Fatalf("%s DAG shape must not vary with instance", a0.Name)
	}
	f0, _ := w0.Get("featurize")
	f3, _ := w3.Get("featurize")
	if f0.Flops == f3.Flops {
		t.Fatal("instance weights should vary across the stream")
	}
}

// TestRegistryValidation covers the registry's error paths.
func TestRegistryValidation(t *testing.T) {
	if got := Names(); !reflect.DeepEqual(got, []string{"energy", "traffic", "weather"}) {
		t.Fatalf("Names() = %v", got)
	}
	if _, err := Build("nope", DefaultOptions()); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := BuildSuite(DefaultOptions(), "energy", "energy"); err == nil {
		t.Fatal("duplicate app accepted")
	}
	if _, err := BuildSuite(DefaultOptions(), "nope"); err == nil {
		t.Fatal("unknown suite app accepted")
	}
}
