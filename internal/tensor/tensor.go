// Package tensor provides dense row-major float64 tensors and the
// Einstein-notation contraction engine backing the EVEREST tensor dialects
// (teil) and the reference interpreter of the EVEREST Kernel Language.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float64 tensor. A data-less tensor (Shaped)
// has a shape and strides but no elements: code that needs only shapes,
// such as the EKL shape pass, takes one, and nothing may read or write its
// elements. The zero value is a data-less scalar.
type Tensor struct {
	shape   []int
	strides []int
	data    []float64
}

// New returns a zero-filled tensor with the given shape. An empty shape
// yields a scalar.
func New(shape ...int) *Tensor {
	t := Shaped(shape...)
	t.data = make([]float64, t.Size())
	return t
}

// Shaped returns a data-less tensor with the given shape.
func Shaped(shape ...int) *Tensor {
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dim %d", d))
		}
	}
	t := &Tensor{shape: append([]int(nil), shape...)}
	t.computeStrides()
	return t
}

// FromData wraps data (not copied) with the given shape.
func FromData(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	t := &Tensor{shape: append([]int(nil), shape...), data: data}
	t.computeStrides()
	return t
}

// Random returns a tensor with entries drawn uniformly from [lo, hi).
func Random(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

func (t *Tensor) computeStrides() {
	t.strides = make([]int, len(t.shape))
	s := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.strides[i] = s
		s *= t.shape[i]
	}
}

// Shape returns the tensor shape (do not mutate).
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the number of elements the shape holds, whether or not t
// carries them.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	return n
}

// HasData reports whether t carries its elements; see Shaped.
func (t *Tensor) HasData() bool { return t.data != nil }

// Data returns the backing slice (row-major; mutating it mutates the
// tensor), nil for a data-less tensor.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, t.shape[i], i))
		}
		off += x * t.strides[i]
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float64) *Tensor {
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Item returns the single element of a scalar tensor.
func (t *Tensor) Item() float64 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.data)))
	}
	return t.data[0]
}

// Apply replaces every element x with fn(x), in place, returning t.
func (t *Tensor) Apply(fn func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = fn(v)
	}
	return t
}

// Map returns a new tensor with fn applied elementwise.
func (t *Tensor) Map(fn func(float64) float64) *Tensor { return t.Clone().Apply(fn) }

// Zip combines two same-shape tensors elementwise into a new tensor.
func Zip(a, b *Tensor, fn func(x, y float64) float64) *Tensor {
	if !sameShape(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: Zip shape mismatch %v vs %v", a.shape, b.shape))
	}
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = fn(a.data[i], b.data[i])
	}
	return out
}

// Add returns a+b elementwise (shapes must match).
func Add(a, b *Tensor) *Tensor { return Zip(a, b, func(x, y float64) float64 { return x + y }) }

// Sub returns a-b elementwise.
func Sub(a, b *Tensor) *Tensor { return Zip(a, b, func(x, y float64) float64 { return x - y }) }

// Mul returns a*b elementwise (Hadamard).
func Mul(a, b *Tensor) *Tensor { return Zip(a, b, func(x, y float64) float64 { return x * y }) }

// Scale returns t*s as a new tensor.
func (t *Tensor) Scale(s float64) *Tensor { return t.Map(func(x float64) float64 { return x * s }) }

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Min returns the minimum element (+Inf for empty tensors).
func (t *Tensor) Min() float64 {
	m := math.Inf(1)
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// MaxAbsDiff returns max |a-b| over all elements; shapes must match.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !sameShape(a.shape, b.shape) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > m {
			m = d
		}
	}
	return m
}

// RMSE returns the root-mean-square difference of two same-shape tensors.
func RMSE(a, b *Tensor) float64 {
	if !sameShape(a.shape, b.shape) {
		return math.Inf(1)
	}
	if len(a.data) == 0 {
		return 0
	}
	s := 0.0
	for i := range a.data {
		d := a.data[i] - b.data[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a.data)))
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Indexer iterates a multi-dimensional index space in row-major order. The
// slice returned by Next aliases internal state: consume it before the next
// call and do not mutate it.
type Indexer struct {
	bounds  []int
	idx     []int
	started bool
	done    bool
}

// NewIndexer returns an iterator over the product of bounds. A zero bound
// yields an immediately-done iterator; an empty bounds list yields exactly
// one (empty) index, matching a rank-0 index space.
func NewIndexer(bounds []int) *Indexer {
	it := &Indexer{bounds: bounds, idx: make([]int, len(bounds))}
	for _, b := range bounds {
		if b <= 0 {
			it.done = true
		}
	}
	return it
}

// Next returns the next index tuple; the second result is false once the
// space is exhausted.
func (it *Indexer) Next() ([]int, bool) {
	if it.done {
		return nil, false
	}
	if !it.started {
		it.started = true
		return it.idx, true
	}
	for d := len(it.bounds) - 1; d >= 0; d-- {
		it.idx[d]++
		if it.idx[d] < it.bounds[d] {
			return it.idx, true
		}
		it.idx[d] = 0
	}
	it.done = true
	return nil, false
}
