package apps

import (
	"fmt"
	"reflect"
	"testing"

	"everest/internal/dataset"
)

// builtKMeans caches one compiled round for the package's tests (the
// compile flow is deterministic, so sharing is safe).
var builtKMeans *KMeans

func kmeansRound(t *testing.T) *KMeans {
	t.Helper()
	if builtKMeans == nil {
		km, err := BuildKMeans(DefaultOptions(), KMeansConfig{})
		if err != nil {
			t.Fatal(err)
		}
		builtKMeans = km
	}
	return builtKMeans
}

func TestKMeansConfigDefaults(t *testing.T) {
	got := KMeansConfig{}.withDefaults()
	want := KMeansConfig{Partitions: 4, Points: 256, Centroids: 8, Dims: 4}
	if got != want {
		t.Fatalf("withDefaults() = %+v, want %+v", got, want)
	}
	// Explicit values survive; below-minimum values snap to the defaults.
	custom := KMeansConfig{Partitions: 2, Points: 32, Centroids: 3, Dims: 16}
	if got := custom.withDefaults(); got != custom {
		t.Fatalf("withDefaults() clobbered explicit config: %+v", got)
	}
	floor := KMeansConfig{Partitions: -1, Points: 1, Centroids: 1, Dims: 1}.withDefaults()
	if floor != want {
		t.Fatalf("withDefaults() on sub-minimum config = %+v, want %+v", floor, want)
	}
}

// TestBuildKMeansRefAccounting pins the contract BuildKMeans enforces:
// the dataset refs decompose the compiled byte accounting exactly, per
// stage, so the data plane and the compiler never disagree about sizes.
func TestBuildKMeansRefAccounting(t *testing.T) {
	km := kmeansRound(t)
	cfg := km.Config
	if cfg != (KMeansConfig{Partitions: 4, Points: 256, Centroids: 8, Dims: 4}) {
		t.Fatalf("built config %+v is not the documented default", cfg)
	}
	points, weights, partials := km.PointRefs(), km.WeightRefs(), km.PartialRefs()
	if len(points) != cfg.Partitions || len(weights) != cfg.Partitions || len(partials) != cfg.Partitions {
		t.Fatalf("ref counts %d/%d/%d, want one of each per partition (%d)",
			len(points), len(weights), len(partials), cfg.Partitions)
	}
	for p := 0; p < cfg.Partitions; p++ {
		if points[p].Partition != p || partials[p].Partition != p {
			t.Fatalf("partition %d refs carry partitions %d/%d", p, points[p].Partition, partials[p].Partition)
		}
	}
	centroids := km.CentroidRef()
	if centroids.Bytes <= 0 {
		t.Fatalf("centroid model has %d bytes", centroids.Bytes)
	}
	if got := points[0].Bytes + centroids.Bytes; got != km.Assign.InputBytes {
		t.Errorf("assign reads %dB but refs sum to %dB", km.Assign.InputBytes, got)
	}
	if weights[0].Bytes != km.Assign.OutputBytes {
		t.Errorf("assign writes %dB but weights ref is %dB", km.Assign.OutputBytes, weights[0].Bytes)
	}
	if got := weights[0].Bytes + points[0].Bytes; got != km.Partial.InputBytes {
		t.Errorf("partial reads %dB but refs sum to %dB", km.Partial.InputBytes, got)
	}
	if got := dataset.Sum(partials); got != km.Update.InputBytes {
		t.Errorf("update reads %dB but partials sum to %dB", km.Update.InputBytes, got)
	}
	if centroids.Bytes != km.Update.OutputBytes {
		t.Errorf("update writes %dB but centroids ref is %dB", km.Update.OutputBytes, centroids.Bytes)
	}
	// The map-reduce shape: a shard's partial is far smaller than its
	// point partition — that asymmetry is the whole locality win.
	if partials[0].Bytes*4 >= points[0].Bytes {
		t.Errorf("partial %dB is not small against partition %dB", partials[0].Bytes, points[0].Bytes)
	}
	// Accessors hand out copies: mutating a returned slice must not
	// corrupt the round's own refs.
	points[0].Bytes = -1
	if km.PointRefs()[0].Bytes == -1 {
		t.Fatal("PointRefs returned the internal slice, not a copy")
	}
	weights[0].Bytes = -1
	if km.WeightRefs()[0].Bytes == -1 {
		t.Fatal("WeightRefs returned the internal slice, not a copy")
	}
	partials[0].Bytes = -1
	if km.PartialRefs()[0].Bytes == -1 {
		t.Fatal("PartialRefs returned the internal slice, not a copy")
	}
}

func TestBuildKMeansCustomConfig(t *testing.T) {
	cfg := KMeansConfig{Partitions: 2, Points: 16, Centroids: 4, Dims: 8}
	km, err := BuildKMeans(DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if km.Config != cfg {
		t.Fatalf("built config %+v, want %+v", km.Config, cfg)
	}
	if len(km.PointRefs()) != 2 || len(km.PartialRefs()) != 2 {
		t.Fatalf("ref counts %d/%d, want 2/2", len(km.PointRefs()), len(km.PartialRefs()))
	}
}

// TestBuildKMeansOnePartition: a one-partition job builds, and its reduce
// kernel is specialized to one partition (a synthesized extent of 1 is
// kept, not replaced by the default).
func TestBuildKMeansOnePartition(t *testing.T) {
	km, err := BuildKMeans(DefaultOptions(), KMeansConfig{Partitions: 1, Points: 64, Dims: 4, Centroids: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := km.Update.InputBytes, dataset.Sum(km.PartialRefs()); got != want || len(km.PartialRefs()) != 1 {
		t.Fatalf("update reads %dB over %d partials, want %dB over 1", got, len(km.PartialRefs()), want)
	}
}

func TestKMeansMapWorkflowShape(t *testing.T) {
	km := kmeansRound(t)
	for _, p := range []int{0, km.Config.Partitions - 1} {
		w := km.MapWorkflow(p)
		wantShape := []string{
			fmt.Sprintf("assign%d<-", p),
			fmt.Sprintf("partial%d<-assign%d", p, p),
		}
		if got := dagShape(w); !reflect.DeepEqual(got, wantShape) {
			t.Fatalf("map shard %d DAG %v, want %v", p, got, wantShape)
		}
		assign, _ := w.Get(fmt.Sprintf("assign%d", p))
		if !reflect.DeepEqual(assign.Reads, []dataset.Ref{km.PointRefs()[p], km.CentroidRef()}) {
			t.Fatalf("assign%d reads %+v", p, assign.Reads)
		}
		if !reflect.DeepEqual(assign.Writes, []dataset.Ref{km.WeightRefs()[p]}) {
			t.Fatalf("assign%d writes %+v", p, assign.Writes)
		}
		if assign.TotalBytes() != km.Assign.InputBytes+km.Assign.OutputBytes {
			t.Fatalf("assign%d moves %dB, compiled accounting says %dB",
				p, assign.TotalBytes(), km.Assign.InputBytes+km.Assign.OutputBytes)
		}
		fold, _ := w.Get(fmt.Sprintf("partial%d", p))
		if !reflect.DeepEqual(fold.Reads, []dataset.Ref{km.WeightRefs()[p], km.PointRefs()[p]}) {
			t.Fatalf("partial%d reads %+v", p, fold.Reads)
		}
		if !reflect.DeepEqual(fold.Writes, []dataset.Ref{km.PartialRefs()[p]}) {
			t.Fatalf("partial%d writes %+v", p, fold.Writes)
		}
		if len(w.Variants()) == 0 {
			t.Fatalf("map shard %d carries no operating points", p)
		}
	}
}

func TestKMeansReduceWorkflowShape(t *testing.T) {
	km := kmeansRound(t)
	w := km.ReduceWorkflow()
	if got := dagShape(w); !reflect.DeepEqual(got, []string{"update<-"}) {
		t.Fatalf("reduce DAG %v", got)
	}
	update, _ := w.Get("update")
	if !reflect.DeepEqual(update.Reads, km.PartialRefs()) {
		t.Fatalf("update reads %+v, want every shard partial", update.Reads)
	}
	if !reflect.DeepEqual(update.Writes, []dataset.Ref{km.CentroidRef()}) {
		t.Fatalf("update writes %+v, want the centroid model", update.Writes)
	}
}

// TestBuildKmeansApp covers the by-name App registration: kmeans is
// buildable through the same interface the serving tiers drive, but
// stays out of Names() so the paper's three-app suite interleave is
// unchanged.
func TestBuildKmeansApp(t *testing.T) {
	for _, n := range Names() {
		if n == "kmeans" {
			t.Fatal("kmeans must not join the default suite interleave")
		}
	}
	a, err := Build("kmeans", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "kmeans" || len(a.Kernels) != 3 {
		t.Fatalf("app %q with %d kernels, want kmeans with 3", a.Name, len(a.Kernels))
	}
	for _, stage := range []string{"assign", "partial", "update"} {
		if _, ok := a.Kernel(stage); !ok {
			t.Fatalf("app has no %q kernel", stage)
		}
	}
	if a.BatchEvents <= 0 {
		t.Fatalf("BatchEvents = %d", a.BatchEvents)
	}
	w := a.Workflow(0)
	tasks := w.Tasks()
	// Default config: 4 partitions x (assign + partial) + the reduce.
	if len(tasks) != 9 || tasks[len(tasks)-1] != "update" {
		t.Fatalf("workflow has tasks %v, want 8 map tasks then update", tasks)
	}
	update, _ := w.Get("update")
	if len(update.Deps) != 4 {
		t.Fatalf("update depends on %v, want every shard's partial", update.Deps)
	}
	if len(w.Variants()) == 0 {
		t.Fatal("app workflow carries no operating points")
	}
	if len(a.Bitstreams()) == 0 {
		t.Fatal("app advertises no bitstreams")
	}
}
