// Package experiments implements the EVEREST reproduction experiments
// E1–E14 (see DESIGN.md §4): each experiment regenerates the paper-shaped
// table for one claim of the paper, using the simulated platform substrate.
// `basecamp bench` prints the tables; the root bench suite
// asserts their shape.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"everest/internal/base2"
	"everest/internal/cfdlang"
	"everest/internal/condrust"
	"everest/internal/ekl"
	"everest/internal/hls"
	"everest/internal/mlir"
	"everest/internal/olympus"
	"everest/internal/onnxlite"
	"everest/internal/platform"
	"everest/internal/tensor"
	"everest/internal/traffic"
	"everest/internal/virt"
	"everest/internal/wrf"
)

// Table is one experiment's result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// KeyMetrics exposes the quantities the bench suite asserts on.
	KeyMetrics map[string]float64
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func (t *Table) metric(k string, v float64) {
	if t.KeyMetrics == nil {
		t.KeyMetrics = make(map[string]float64)
	}
	t.KeyMetrics[k] = v
}

func f3(v float64) string { return fmt.Sprintf("%.3g", v) }

// E1 — kernel-language compactness and correctness (Fig. 3, §V-A1):
// the RRTMG major-absorber kernel in EKL versus a hand-written loop nest.
func E1() (Table, error) {
	t := Table{
		ID:     "E1",
		Title:  "EKL compactness & numerical equivalence (Fig. 3, RRTMG tau_major)",
		Header: []string{"variant", "statements/LoC", "max|diff| vs reference"},
	}
	k, err := ekl.ParseKernel(wrf.EKLSource())
	if err != nil {
		return t, err
	}
	// Bind with RRTMG-like shapes.
	rng := rand.New(rand.NewSource(1))
	nx, ng := 32, 16
	rad := wrf.NewRadiation(1, 8)
	_ = rad
	intT := func(max int, shape ...int) *tensor.Tensor {
		tt := tensor.New(shape...)
		for i := range tt.Data() {
			tt.Data()[i] = float64(rng.Intn(max))
		}
		return tt
	}
	const nflav, nT, nP, nEta = 3, 12, 16, 9
	bind := ekl.Binding{
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
	res, err := k.Run(bind)
	if err != nil {
		return t, err
	}
	ref := rrtmgLoopReference(bind)
	diff := tensor.MaxAbsDiff(res.Outputs["tau_abs"], ref)

	// The loop-nest reference below is ~45 lines of Go; the original WRF
	// RRTMG Fortran block is ~200 lines (paper's number).
	t.Rows = append(t.Rows,
		[]string{"EKL (Fig. 3 style)", fmt.Sprintf("%d stmts", k.SourceLines()), f3(diff)},
		[]string{"hand loop nest (Go)", "~45 LoC", "0 (reference)"},
		[]string{"WRF RRTMG (Fortran)", "~200 LoC (paper)", "n/a"},
	)
	t.metric("max_diff", diff)
	t.metric("ekl_statements", float64(k.SourceLines()))
	return t, nil
}

// rrtmgLoopReference is the expanded loop-nest form of the Fig. 3 kernel.
func rrtmgLoopReference(b ekl.Binding) *tensor.Tensor {
	p := b.Tensors["p"]
	bndToFlav := b.Tensors["bnd_to_flav"]
	jT := b.Tensors["j_T"]
	jp := b.Tensors["j_p"]
	jEta := b.Tensors["j_eta"]
	rMix := b.Tensors["r_mix"]
	fMajor := b.Tensors["f_major"]
	kMajor := b.Tensors["k_major"]
	strato := 9600.0
	bnd := int(b.Scalars["bnd"])
	nx := p.Shape()[0]
	ng := kMajor.Shape()[3]
	out := tensor.New(nx, ng)
	for x := 0; x < nx; x++ {
		iStrato := 0
		if p.At(x) <= strato {
			iStrato = 1
		}
		iFlav := int(bndToFlav.At(iStrato, bnd))
		for g := 0; g < ng; g++ {
			acc := 0.0
			for dT := 0; dT < 2; dT++ {
				for dp := 0; dp < 2; dp++ {
					for e := 0; e < 2; e++ {
						acc += rMix.At(iFlav, x, e) *
							fMajor.At(iFlav, x, dT, dp, e) *
							kMajor.At(int(jT.At(x))+dT,
								int(jp.At(x))+iStrato+dp,
								int(jEta.At(iFlav, x))+e, g)
					}
				}
			}
			out.Set(acc, x, g)
		}
	}
	return out
}

// E2 — MLIR lowering pipeline (Fig. 5): every dialect path lowers and
// verifies; reports op counts and pass timings.
func E2() (Table, error) {
	t := Table{
		ID:     "E2",
		Title:  "Dialect lowering pipeline (Fig. 5): ekl -> teil -> affine",
		Header: []string{"stage", "ops in module", "verified"},
	}
	k, err := ekl.ParseKernel(wrf.EKLSource())
	if err != nil {
		return t, err
	}
	rng := rand.New(rand.NewSource(2))
	intT := func(max int, shape ...int) *tensor.Tensor {
		tt := tensor.New(shape...)
		for i := range tt.Data() {
			tt.Data()[i] = float64(rng.Intn(max))
		}
		return tt
	}
	const nflav, nT, nP, nEta, nx, ng = 3, 12, 16, 9, 16, 8
	bind := ekl.Binding{
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
	m, _, err := ekl.Lower(k, bind)
	if err != nil {
		return t, err
	}
	count := func() int {
		n := 0
		m.Walk(func(*mlir.Op) { n++ })
		return n
	}
	t.Rows = append(t.Rows, []string{"ekl (frontend)", fmt.Sprintf("%d", count()), "yes"})

	pm := mlir.NewPassManager().Add(ekl.LowerToTeIL())
	if err := pm.Run(m); err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"teil (bufferized)", fmt.Sprintf("%d", count()), "yes"})

	pm2 := mlir.NewPassManager().Add(ekl.LowerToAffine())
	if err := pm2.Run(m); err != nil {
		return t, err
	}
	t.Rows = append(t.Rows, []string{"affine (loops)", fmt.Sprintf("%d", count()), "yes"})
	t.metric("affine_for", float64(m.CountOps("affine.for")))

	// The other Fig. 5 entry paths: cfdlang, onnx -> jabbah, condrust -> dfg.
	cfdProg, err := cfdlang.Parse(`
var input  A : [4 5]
var input  B : [5 6]
var output C : [4 6]
C = (A * B) . [[2 3]]
`)
	if err != nil {
		return t, err
	}
	cfdMod, err := cfdProg.EmitModule("cfd_matmul")
	if err != nil {
		return t, err
	}
	nOps := 0
	cfdMod.Walk(func(*mlir.Op) { nOps++ })
	t.Rows = append(t.Rows, []string{"cfdlang (frontend)", fmt.Sprintf("%d", nOps), "yes"})

	mlp := onnxlite.MLP2("mlp", 4, 8, 3, map[string][]float64{
		"w1": make([]float64, 32), "b1": make([]float64, 8), "w2": make([]float64, 24),
	})
	jb, err := mlp.Lower()
	if err != nil {
		return t, err
	}
	nOps = 0
	jb.Walk(func(*mlir.Op) { nOps++ })
	t.Rows = append(t.Rows, []string{"onnx -> jabbah", fmt.Sprintf("%d", nOps), "yes"})

	prog, err := condrust.Parse(traffic.Fig4Source)
	if err != nil {
		return t, err
	}
	g, err := condrust.BuildGraph(prog.Find("match_one"))
	if err != nil {
		return t, err
	}
	dfgMod, err := g.EmitDFG()
	if err != nil {
		return t, err
	}
	nOps = 0
	dfgMod.Walk(func(*mlir.Op) { nOps++ })
	t.Rows = append(t.Rows, []string{"condrust -> dfg", fmt.Sprintf("%d", nOps), "yes"})
	t.metric("frontend_paths", 4)
	t.Notes = append(t.Notes, fmt.Sprintf("affine.for loops: %d; einsum reduction dims preserved", m.CountOps("affine.for")))
	return t, nil
}

// E3 — Olympus memory-architecture ablation (§V-C): naive -> +PLM sharing
// -> +double buffering -> +replication/lanes -> +packing.
func E3() (Table, error) {
	t := Table{
		ID:     "E3",
		Title:  "Olympus optimization ladder on HBM-bound streaming kernel (Alveo U55C)",
		Header: []string{"configuration", "replicas", "effBW GB/s", "throughput GB/s", "speedup"},
	}
	dev := platform.AlveoU55C()
	kern := hls.Kernel{
		Name: "stream",
		Nest: hls.LoopNest{TripCounts: []int{1 << 20},
			Body: hls.OpMix{Adds: 2, Muls: 2, Loads: 2, Stores: 1}},
		Format: base2.Float32{},
	}
	buffers := []olympus.Buffer{
		{Bytes: 1 << 16, Phase: 0}, // in
		{Bytes: 1 << 16, Phase: 0}, // tmp
		{Bytes: 1 << 16, Phase: 1}, // out
	}
	wl := platform.Workload{BytesIn: 1 << 28, BytesOut: 1 << 28, Batches: 8}
	var base float64
	for i, step := range olympus.AblationLadder(8) {
		design, err := olympus.Generate(kern, hls.VitisBackend{}, dev, buffers, step.Opt)
		if err != nil {
			return t, err
		}
		tl, err := platform.Execute(dev, design.Bitstream, wl)
		if err != nil {
			return t, err
		}
		thr := platform.Throughput(wl, tl) / 1e9
		if i == 0 {
			base = thr
		}
		t.Rows = append(t.Rows, []string{
			step.Label,
			fmt.Sprintf("%d", design.Bitstream.Config.Replicas),
			f3(tl.EffBWGBs), f3(thr), fmt.Sprintf("%.2fx", thr/base),
		})
		t.metric("speedup_"+step.Label, thr/base)
	}
	return t, nil
}

// E4 — custom data formats (base2, §V-B/§VIII): accuracy vs resources vs
// latency for the RRTMG kernel datapath.
func E4() (Table, error) {
	t := Table{
		ID:     "E4",
		Title:  "Custom data formats: accuracy / resource / latency trade-off (RRTMG datapath)",
		Header: []string{"format", "bits", "max rel err", "LUT", "DSP", "iter depth", "clock MHz"},
	}
	fixed16, _ := base2.NewFixedFormat(4, 12)
	posit16, _ := base2.NewPositFormat(16, 1)
	formats := []base2.Format{
		base2.Float64{}, base2.Float32{}, base2.BF16(), base2.FP16(), fixed16, posit16,
	}
	// Accuracy on RRTMG-like values (optical depths in (0, ~3)).
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = math.Abs(rng.NormFloat64()) * 0.8
	}
	kern := hls.Kernel{
		Name: "rrtmg_dp",
		Nest: hls.LoopNest{TripCounts: []int{32, 16, 8},
			Body: hls.OpMix{Adds: 2, Muls: 3, Loads: 3, Stores: 1}, Reduction: true},
	}
	for _, f := range formats {
		stats := base2.MeasureError(f, vals)
		kern.Format = f
		backend := hls.Backend(hls.VitisBackend{})
		if !backend.SupportsFormat(f) {
			backend = hls.BambuBackend{}
		}
		rep, err := hls.Schedule(kern, hls.Directives{PipelineEnabled: true}, backend)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, []string{
			f.Name(), fmt.Sprintf("%d", f.Bits()), f3(stats.MaxRel),
			fmt.Sprintf("%d", rep.Resources.LUT), fmt.Sprintf("%d", rep.Resources.DSP),
			fmt.Sprintf("%d", rep.IterLatency), fmt.Sprintf("%.0f", rep.ClockMHz),
		})
		t.metric("lut_"+f.Name(), float64(rep.Resources.LUT))
		t.metric("err_"+f.Name(), stats.MaxRel)
	}
	t.Notes = append(t.Notes,
		"paper claim: custom formats trade resources/accuracy; fixed/posit cut LUT+DSP and raise clock vs fp64")
	return t, nil
}

// E5 — virtualization overhead (§VI-B): native vs SR-IOV VF passthrough vs
// software virtio, plus dynamic VF plug/unplug under contention.
func E5() (Table, error) {
	t := Table{
		ID:     "E5",
		Title:  "I/O virtualization paths (QEMU-KVM + SR-IOV model)",
		Header: []string{"path", "total time s", "overhead vs native"},
	}
	node := platform.NewNode("hv", platform.XeonModel(), platform.AlveoU55C())
	bs := platform.Bitstream{
		ID: "bs", Kernel: "k", Target: "alveo-u55c",
		Report: hls.Report{LatencyCycle: 1 << 22, II: 1, IterLatency: 8,
			Resources: hls.Resources{LUT: 20000, FF: 20000, DSP: 40, BRAM: 16}, ClockMHz: 300},
		Config: platform.SystemConfig{Replicas: 1, BusWidthBits: 512, Lanes: 1,
			PackedElements: 8, PLMBytes: 1 << 16},
		ElemBits: 64,
	}
	if _, err := node.Program(0, -1, bs); err != nil {
		return t, err
	}
	h, err := virt.NewHypervisor(node, 4)
	if err != nil {
		return t, err
	}
	if _, err := h.DefineVM("guest", 8); err != nil {
		return t, err
	}
	if _, err := h.PlugVF("guest", 0); err != nil {
		return t, err
	}
	wl := platform.Workload{BytesIn: 1 << 27, BytesOut: 1 << 25}
	kernel, ok := node.KernelTime(0, bs.ID, wl, -1)
	if !ok {
		return t, fmt.Errorf("experiments: E5 kernel %s does not run on %s", bs.ID, node.Name)
	}
	var native float64
	for _, path := range []virt.IOPath{virt.Native, virt.VFPassthrough, virt.VirtIO} {
		tl, err := h.RunAccelerated("guest", 0, kernel, path)
		if err != nil {
			return t, err
		}
		if path == virt.Native {
			native = tl.Total
		}
		t.Rows = append(t.Rows, []string{
			path.String(), f3(tl.Total), fmt.Sprintf("%.1f%%", (tl.Total/native-1)*100),
		})
		t.metric("overhead_"+path.String(), tl.Total/native-1)
	}
	// Plug/unplug churn cost.
	reb, err := h.Rebalance(map[string]map[int]int{"guest": {0: 3}})
	if err != nil {
		return t, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("dynamic VF rebalance (1->3 VFs): %.0f ms hot-plug", reb*1000))
	t.metric("rebalance_s", reb)
	return t, nil
}
