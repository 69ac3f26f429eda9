package base2

import (
	"fmt"
	"math"
)

// PositFormat is a posit⟨N,ES⟩ universal number format (Gustafson type III
// unum), as modelled by the EVEREST base2 dialect for accelerator datapaths
// (cf. Murillo et al., "Generating Posit-Based Accelerators With High-Level
// Synthesis", paper ref [12]).
//
// Supported widths are 3..32 bits with 0..4 exponent bits. Encoding uses
// round-to-nearest-even on the posit word, never rounds a nonzero value to
// zero or NaR, and saturates at maxpos/minpos, per the posit standard.
type PositFormat struct {
	N  int
	ES int
}

// NewPositFormat validates and returns a posit format.
func NewPositFormat(n, es int) (PositFormat, error) {
	p := PositFormat{N: n, ES: es}
	if n < 3 || n > 32 || es < 0 || es > 4 {
		return p, fmt.Errorf("base2: invalid posit<%d,%d>", n, es)
	}
	return p, nil
}

// Name implements Format.
func (p PositFormat) Name() string { return fmt.Sprintf("posit<%d,%d>", p.N, p.ES) }

// Bits implements Format.
func (p PositFormat) Bits() int { return p.N }

// Quantize implements Format.
func (p PositFormat) Quantize(x float64) float64 { return p.Decode(p.Encode(x)) }

// NaR returns the Not-a-Real bit pattern (sign bit only).
func (p PositFormat) NaR() uint64 { return 1 << (p.N - 1) }

func (p PositFormat) mask() uint64 { return (uint64(1) << p.N) - 1 }

// Encode rounds x to the nearest posit and returns its bit pattern.
func (p PositFormat) Encode(x float64) uint64 {
	if x == 0 {
		return 0
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return p.NaR()
	}
	sign := x < 0
	ax := math.Abs(x)

	m, e2 := math.Frexp(ax) // ax = m * 2^e2, m in [0.5, 1)
	scale := e2 - 1
	mant := m * 2 // in [1, 2)
	// Exact 52-bit fraction of the normalized mantissa.
	frac52 := uint64((mant - 1) * (1 << 52))

	pow2es := 1 << p.ES
	k := floorDiv(scale, pow2es)
	eexp := scale - k*pow2es // in [0, pow2es)

	available := p.N - 1
	// Regime run length (before the terminator bit). When the run alone
	// fills the payload the value saturates at maxpos/minpos; a run of
	// available-1 bits plus terminator still fits (with no exp/frac bits).
	var runLen int
	if k >= 0 {
		runLen = k + 1
	} else {
		runLen = -k
	}

	var payload uint64
	if runLen >= available {
		if k >= 0 {
			payload = (uint64(1) << available) - 1
		} else {
			payload = 1
		}
	} else {
		rl := runLen + 1       // including terminator
		keep := available - rl // bits available for exponent+fraction
		var regime uint64
		if k >= 0 {
			regime = ((uint64(1) << (k + 1)) - 1) << 1 // 1...10
		} else {
			regime = 1 // 0...01
		}
		content := (uint64(eexp) << 52) | frac52 // width = ES + 52
		cw := p.ES + 52
		shift := cw - keep // always > 0 for N <= 32
		top := content >> shift
		remainder := content & ((uint64(1) << shift) - 1)
		half := uint64(1) << (shift - 1)
		payload = (regime << keep) | top
		if remainder > half || (remainder == half && payload&1 == 1) {
			payload++
		}
		if payload >= uint64(1)<<available {
			payload = (uint64(1) << available) - 1 // saturate, never wrap to NaR
		}
	}
	if payload == 0 {
		payload = 1 // never round a nonzero value to zero
	}
	if sign {
		return ((uint64(1) << p.N) - payload) & p.mask()
	}
	return payload
}

// Decode returns the real value of a posit bit pattern. NaR decodes to NaN.
func (p PositFormat) Decode(bits uint64) float64 {
	bits &= p.mask()
	if bits == 0 {
		return 0
	}
	if bits == p.NaR() {
		return math.NaN()
	}
	negative := bits>>(p.N-1) == 1
	if negative {
		bits = ((uint64(1) << p.N) - bits) & p.mask()
	}

	// Parse regime starting at bit N-2.
	r0 := (bits >> (p.N - 2)) & 1
	c := 0
	for i := p.N - 2; i >= 0; i-- {
		if (bits>>i)&1 == r0 {
			c++
		} else {
			break
		}
	}
	var k int
	if r0 == 1 {
		k = c - 1
	} else {
		k = -c
	}

	// Bits remaining after sign + regime run + terminator.
	remaining := p.N - 1 - c - 1
	if remaining < 0 {
		remaining = 0
	}
	rest := bits & ((uint64(1) << remaining) - 1)

	// Exponent: up to ES bits, zero-padded on the right if cut off.
	gotExp := p.ES
	if remaining < p.ES {
		gotExp = remaining
	}
	eexp := 0
	if gotExp > 0 {
		eexp = int(rest >> (remaining - gotExp))
	}
	eexp <<= p.ES - gotExp

	fb := remaining - gotExp
	frac := rest & ((uint64(1) << fb) - 1)
	mant := 1 + float64(frac)/math.Ldexp(1, fb)

	val := mant * math.Ldexp(1, k*(1<<p.ES)+eexp)
	if negative {
		return -val
	}
	return val
}

func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
