// Package base2 implements the custom binary numeral types of the EVEREST
// base2 MLIR dialect (Friebel et al., "BASE2: An IR for Binary Numeral
// Types", HEART 2023; paper §V-B): software models of signed fixed-point,
// posit⟨n,es⟩, and reduced-precision IEEE-style minifloats (float16,
// bfloat16).
//
// The package provides a uniform Format interface used by the HLS resource
// estimator and the E4 data-format experiment: Quantize maps a float64
// through the format and back, exposing exactly the rounding a hardware
// implementation of that format would apply.
package base2

import (
	"math"
)

// Format is a value format implementable in FPGA logic.
type Format interface {
	// Name is a short identifier ("fixed<8,8>", "posit<16,1>", "bf16").
	Name() string
	// Bits is the storage width in bits.
	Bits() int
	// Quantize rounds x to the nearest representable value (ties to even
	// where the format defines it) and returns it as float64.
	Quantize(x float64) float64
}

// Float64 is the identity format (the fp64 baseline of experiment E4).
type Float64 struct{}

// Name implements Format.
func (Float64) Name() string { return "f64" }

// Bits implements Format.
func (Float64) Bits() int { return 64 }

// Quantize implements Format (identity).
func (Float64) Quantize(x float64) float64 { return x }

// Float32 quantizes through IEEE binary32.
type Float32 struct{}

// Name implements Format.
func (Float32) Name() string { return "f32" }

// Bits implements Format.
func (Float32) Bits() int { return 32 }

// Quantize implements Format.
func (Float32) Quantize(x float64) float64 { return float64(float32(x)) }

// ErrorStats summarizes quantization error over a data set.
type ErrorStats struct {
	MaxAbs  float64
	RMSE    float64
	MaxRel  float64 // relative to |x|, ignoring |x| < relFloor
	Samples int
}

const relFloor = 1e-30

// MeasureError quantizes xs through f and reports the error statistics used
// by the E4 accuracy/resource sweep.
func MeasureError(f Format, xs []float64) ErrorStats {
	var st ErrorStats
	st.Samples = len(xs)
	if len(xs) == 0 {
		return st
	}
	var sq float64
	for _, x := range xs {
		q := f.Quantize(x)
		d := math.Abs(q - x)
		if d > st.MaxAbs {
			st.MaxAbs = d
		}
		sq += d * d
		if ax := math.Abs(x); ax > relFloor {
			if rel := d / ax; rel > st.MaxRel {
				st.MaxRel = rel
			}
		}
	}
	st.RMSE = math.Sqrt(sq / float64(len(xs)))
	return st
}
