package tensor

import (
	"fmt"
	"sort"
	"strings"
)

// Einsum evaluates an Einstein-notation contraction, e.g.
//
//	Einsum("ij,jk->ik", a, b)         // matrix multiply
//	Einsum("xij,ij->x", r, k)         // batched Frobenius products
//	Einsum("i->", v)                  // full reduction
//	Einsum("ij->ji", m)               // transpose
//
// Index letters appearing in inputs but not in the output are summed over
// (the paper's Fig. 3 kernels are sums over dT, dp, dη). Repeated letters
// within one operand trace that operand's diagonal. Letters must be single
// runes in [a-zA-Z].
func Einsum(spec string, inputs ...*Tensor) (*Tensor, error) {
	inSpecs, outSpec, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	if len(inSpecs) != len(inputs) {
		return nil, fmt.Errorf("einsum: spec %q names %d inputs, got %d tensors",
			spec, len(inSpecs), len(inputs))
	}

	// Bind every index letter to its extent, checking consistency.
	extents := make(map[rune]int)
	for k, in := range inputs {
		labels := inSpecs[k]
		if len(labels) != in.Rank() {
			return nil, fmt.Errorf("einsum: operand %d has rank %d but spec %q names %d indices",
				k, in.Rank(), string(labels), len(labels))
		}
		for d, r := range labels {
			ext := in.Shape()[d]
			if prev, ok := extents[r]; ok && prev != ext {
				return nil, fmt.Errorf("einsum: index %q bound to both %d and %d", r, prev, ext)
			}
			extents[r] = ext
		}
	}
	for _, r := range outSpec {
		if _, ok := extents[r]; !ok {
			return nil, fmt.Errorf("einsum: output index %q not present in any input", r)
		}
	}

	// Partition indices: free (appear in output, kept) vs summed.
	sumIdx := make([]rune, 0, len(extents))
	outSet := make(map[rune]bool, len(outSpec))
	for _, r := range outSpec {
		outSet[r] = true
	}
	for r := range extents {
		if !outSet[r] {
			sumIdx = append(sumIdx, r)
		}
	}
	sort.Slice(sumIdx, func(i, j int) bool { return sumIdx[i] < sumIdx[j] })

	outShape := make([]int, len(outSpec))
	for i, r := range outSpec {
		outShape[i] = extents[r]
	}
	out := New(outShape...)

	// Precompute, for each operand, the position of each of its labels in
	// the combined (free + summed) index tuple.
	order := append(append([]rune(nil), outSpec...), sumIdx...)
	pos := make(map[rune]int, len(order))
	for i, r := range order {
		pos[r] = i
	}
	operandMap := make([][]int, len(inputs))
	for k, labels := range inSpecs {
		m := make([]int, len(labels))
		for d, r := range labels {
			m[d] = pos[r]
		}
		operandMap[k] = m
	}

	bounds := make([]int, len(order))
	for i, r := range order {
		bounds[i] = extents[r]
	}
	nFree := len(outSpec)

	// Iterate the full index space accumulating products. This is the
	// reference implementation backing correctness tests; the HLS path
	// generates loop nests from the same spec.
	opIdx := make([][]int, len(inputs))
	for k := range inputs {
		opIdx[k] = make([]int, len(inSpecs[k]))
	}
	it := NewIndexer(bounds)
	outIdx := make([]int, nFree)
	for tuple, ok := it.Next(); ok; tuple, ok = it.Next() {
		prod := 1.0
		for k, in := range inputs {
			m := operandMap[k]
			for d := range m {
				opIdx[k][d] = tuple[m[d]]
			}
			prod *= in.At(opIdx[k]...)
		}
		copy(outIdx, tuple[:nFree])
		out.data[out.offset(outIdx)] += prod
	}
	return out, nil
}

// MustEinsum is Einsum that panics on error, for internal fixed specs.
func MustEinsum(spec string, inputs ...*Tensor) *Tensor {
	t, err := Einsum(spec, inputs...)
	if err != nil {
		panic(err)
	}
	return t
}

func parseSpec(spec string) (ins [][]rune, out []rune, err error) {
	arrow := strings.Index(spec, "->")
	if arrow < 0 {
		return nil, nil, fmt.Errorf("einsum: spec %q missing ->", spec)
	}
	lhs, rhs := spec[:arrow], spec[arrow+2:]
	for _, part := range strings.Split(lhs, ",") {
		labels, err := parseLabels(part)
		if err != nil {
			return nil, nil, err
		}
		ins = append(ins, labels)
	}
	out, err = parseLabels(rhs)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[rune]bool)
	for _, r := range out {
		if seen[r] {
			return nil, nil, fmt.Errorf("einsum: repeated output index %q", r)
		}
		seen[r] = true
	}
	return ins, out, nil
}

func parseLabels(s string) ([]rune, error) {
	labels := make([]rune, 0, len(s))
	for _, r := range strings.TrimSpace(s) {
		if (r < 'a' || r > 'z') && (r < 'A' || r > 'Z') {
			return nil, fmt.Errorf("einsum: invalid index letter %q", r)
		}
		labels = append(labels, r)
	}
	return labels, nil
}

// MatVec returns the matrix-vector product of a rank-2 and a rank-1 tensor.
func MatVec(a, v *Tensor) *Tensor { return MustEinsum("ij,j->i", a, v) }

// Dot returns the inner product of two rank-1 tensors.
func Dot(a, b *Tensor) float64 { return MustEinsum("i,i->", a, b).Item() }
