package base2

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFixedFormatBasics(t *testing.T) {
	f, err := NewFixedFormat(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "fixed<8,8>" || f.Bits() != 16 {
		t.Error("name/bits wrong")
	}
	if 1/f.scale() != 1.0/256 {
		t.Error("resolution wrong")
	}
	if f.FromRaw(f.maxRaw()) != 127.99609375 || f.FromRaw(f.minRaw()) != -128 {
		t.Errorf("range wrong: [%v, %v]", f.FromRaw(f.minRaw()), f.FromRaw(f.maxRaw()))
	}
}

func TestFixedFormatValidation(t *testing.T) {
	if _, err := NewFixedFormat(0, 8); err == nil {
		t.Error("IntBits 0 must fail")
	}
	if _, err := NewFixedFormat(40, 40); err == nil {
		t.Error("over-wide format must fail")
	}
	if _, err := NewFixedFormat(8, -1); err == nil {
		t.Error("negative FracBits must fail")
	}
}

func TestFixedQuantizeExactAndRounded(t *testing.T) {
	f, _ := NewFixedFormat(8, 4)
	if f.Quantize(1.25) != 1.25 { // representable (4 frac bits)
		t.Error("representable value changed")
	}
	// 1/3 rounds to nearest multiple of 1/16.
	got := f.Quantize(1.0 / 3.0)
	want := math.RoundToEven((1.0/3.0)*16) / 16
	if got != want {
		t.Errorf("quantize(1/3) = %v, want %v", got, want)
	}
}

func TestFixedSaturation(t *testing.T) {
	f, _ := NewFixedFormat(4, 4) // range [-8, 7.9375]
	if f.Quantize(100) != f.FromRaw(f.maxRaw()) {
		t.Error("positive overflow must saturate")
	}
	if f.Quantize(-100) != f.FromRaw(f.minRaw()) {
		t.Error("negative overflow must saturate")
	}
	if f.Quantize(math.NaN()) != 0 {
		t.Error("NaN quantizes to 0")
	}
}

func TestPositFormatValidation(t *testing.T) {
	if _, err := NewPositFormat(2, 1); err == nil {
		t.Error("n=2 must fail")
	}
	if _, err := NewPositFormat(64, 1); err == nil {
		t.Error("n=64 must fail")
	}
	if _, err := NewPositFormat(16, 5); err == nil {
		t.Error("es=5 must fail")
	}
}

func TestPositSpecialValues(t *testing.T) {
	p, _ := NewPositFormat(16, 1)
	if p.Encode(0) != 0 || p.Decode(0) != 0 {
		t.Error("zero roundtrip failed")
	}
	if p.Encode(math.NaN()) != p.NaR() {
		t.Error("NaN must encode to NaR")
	}
	if p.Encode(math.Inf(1)) != p.NaR() {
		t.Error("Inf must encode to NaR")
	}
	if !math.IsNaN(p.Decode(p.NaR())) {
		t.Error("NaR must decode to NaN")
	}
	if p.Encode(1) != uint64(1)<<(p.N-2) {
		t.Errorf("posit 1.0 must be 0100..0, got %b", p.Encode(1))
	}
	if p.Decode(p.Encode(-1)) != -1 {
		t.Error("-1 roundtrip failed")
	}
}

func TestPositExhaustiveRoundTrip16(t *testing.T) {
	// Every posit16 pattern must decode to a value that re-encodes to the
	// same pattern (bit-exactness of the decoder/encoder pair).
	p, _ := NewPositFormat(16, 1)
	for bits := uint64(0); bits < 1<<16; bits++ {
		v := p.Decode(bits)
		if math.IsNaN(v) {
			continue
		}
		if got := p.Encode(v); got != bits {
			t.Fatalf("posit16 roundtrip failed: bits=%04x decode=%g re-encode=%04x", bits, v, got)
		}
	}
}

func TestPositExhaustiveRoundTrip8es0(t *testing.T) {
	p, _ := NewPositFormat(8, 0)
	for bits := uint64(0); bits < 1<<8; bits++ {
		v := p.Decode(bits)
		if math.IsNaN(v) {
			continue
		}
		if got := p.Encode(v); got != bits {
			t.Fatalf("posit8 roundtrip failed: bits=%02x decode=%g re-encode=%02x", bits, v, got)
		}
	}
}

func TestPositMonotonicity(t *testing.T) {
	// Classic posit property: ordering of (non-NaR) posit values matches
	// the ordering of their bit patterns read as two's-complement ints.
	p, _ := NewPositFormat(12, 2)
	type pv struct {
		signed int64
		val    float64
	}
	var all []pv
	for bits := uint64(0); bits < 1<<12; bits++ {
		if bits == p.NaR() {
			continue
		}
		signed := int64(bits)
		if bits>>(uint(p.N)-1) == 1 {
			signed = int64(bits) - (1 << uint(p.N))
		}
		all = append(all, pv{signed, p.Decode(bits)})
	}
	// Sort by signed pattern ordering is the natural iteration order after
	// shifting; verify values strictly increase.
	last := math.Inf(-1)
	for s := -(int64(1) << 11) + 1; s < int64(1)<<11; s++ {
		for _, e := range all {
			if e.signed == s {
				if e.val <= last {
					t.Fatalf("posit monotonicity violated at pattern %d: %g <= %g", s, e.val, last)
				}
				last = e.val
			}
		}
	}
}

func TestPositRoundingIsNearest(t *testing.T) {
	p, _ := NewPositFormat(16, 1)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		x := math.Ldexp(rng.Float64()*2-1, rng.Intn(20)-10)
		if x == 0 {
			continue
		}
		q := p.Decode(p.Encode(x))
		// q must be at least as close to x as the adjacent posits.
		bits := p.Encode(x)
		for _, nb := range []uint64{bits - 1, bits + 1} {
			nv := p.Decode(nb & p.mask())
			if math.IsNaN(nv) {
				continue
			}
			if math.Abs(nv-x) < math.Abs(q-x)-1e-18 {
				t.Fatalf("x=%g rounded to %g but neighbour %g is closer", x, q, nv)
			}
		}
	}
}

func TestPositSaturation(t *testing.T) {
	p, _ := NewPositFormat(8, 0)
	big := 1e30
	if got := p.Decode(p.Encode(big)); got != p.Decode(1<<(p.N-1)-1) {
		t.Errorf("overflow must saturate at maxpos, got %g want %g", got, p.Decode(1<<(p.N-1)-1))
	}
	tiny := 1e-30
	if got := p.Decode(p.Encode(tiny)); got != p.Decode(1) {
		t.Errorf("underflow must saturate at minpos, got %g want %g", got, p.Decode(1))
	}
	if got := p.Decode(p.Encode(-big)); got != -p.Decode(1<<(p.N-1)-1) {
		t.Errorf("negative overflow: got %g", got)
	}
}

func TestMiniFloatFP16Exhaustive(t *testing.T) {
	f := FP16()
	for bits := uint64(0); bits < 1<<16; bits++ {
		v := f.Decode(bits)
		if math.IsNaN(v) {
			continue
		}
		got := f.Encode(v)
		if got != bits {
			// -0 and +0 encode distinctly; Decode keeps the sign.
			if v == 0 && got&0x7fff == 0 && bits&0x7fff == 0 {
				continue
			}
			t.Fatalf("f16 roundtrip failed: %04x -> %g -> %04x", bits, v, got)
		}
	}
}

func TestMiniFloatBF16Exhaustive(t *testing.T) {
	f := BF16()
	for bits := uint64(0); bits < 1<<16; bits++ {
		v := f.Decode(bits)
		if math.IsNaN(v) {
			continue
		}
		got := f.Encode(v)
		if got != bits {
			if v == 0 && got&0x7fff == 0 && bits&0x7fff == 0 {
				continue
			}
			t.Fatalf("bf16 roundtrip failed: %04x -> %g -> %04x", bits, v, got)
		}
	}
}

func TestMiniFloatSpecials(t *testing.T) {
	f := FP16()
	if !math.IsInf(f.Decode(f.Encode(1e30)), 1) {
		t.Error("overflow must produce +Inf")
	}
	if !math.IsInf(f.Decode(f.Encode(math.Inf(-1))), -1) {
		t.Error("-Inf roundtrip failed")
	}
	if !math.IsNaN(f.Decode(f.Encode(math.NaN()))) {
		t.Error("NaN roundtrip failed")
	}
	if f.Decode(f.Encode(1e-30)) != 0 {
		t.Error("deep underflow must flush to zero")
	}
	if f.Decode(0x7bff) != 65504 {
		t.Errorf("fp16 max = %g, want 65504", f.Decode(0x7bff))
	}
	if f.Decode(1<<f.FracBits) != math.Ldexp(1, -14) {
		t.Errorf("fp16 min normal = %g", f.Decode(1<<f.FracBits))
	}
}

func TestMiniFloatSubnormals(t *testing.T) {
	f := FP16()
	// Smallest subnormal is 2^-24.
	sub := math.Ldexp(1, -24)
	if f.Quantize(sub) != sub {
		t.Errorf("smallest subnormal not preserved: %g", f.Quantize(sub))
	}
	// Half of it rounds to zero (ties to even).
	if f.Quantize(sub/2) != 0 {
		t.Errorf("half subnormal must round to 0, got %g", f.Quantize(sub/2))
	}
	// 1.5x rounds to 2x (nearest even between 1 and 2 ulp).
	if got := f.Quantize(sub * 1.5); got != 2*sub {
		t.Errorf("1.5 ulp must round to even (2 ulp): %g", got)
	}
}

func TestBF16MatchesFloat32Truncation(t *testing.T) {
	// bf16 has the same exponent range as f32, so quantizing any f32 value
	// must keep its magnitude within one bf16 ulp.
	f := BF16()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x := float64(float32(math.Ldexp(rng.Float64()*2-1, rng.Intn(60)-30)))
		q := f.Quantize(x)
		if x == 0 {
			continue
		}
		rel := math.Abs(q-x) / math.Abs(x)
		if rel > 1.0/256 { // 7 fraction bits -> half ulp 2^-8
			t.Fatalf("bf16 error too large: x=%g q=%g rel=%g", x, q, rel)
		}
	}
}

func TestMeasureError(t *testing.T) {
	f, _ := NewFixedFormat(4, 2) // resolution 0.25
	xs := []float64{0.1, 0.2, 0.3}
	st := MeasureError(f, xs)
	if st.MaxAbs > 0.125+1e-12 {
		t.Errorf("max abs err %g exceeds half resolution", st.MaxAbs)
	}
	if st.MaxAbs <= 0 || st.MaxRel <= 0 {
		t.Error("error must be positive for non-representable inputs")
	}
	if empty := MeasureError(f, nil); empty != (ErrorStats{}) {
		t.Errorf("empty input should give zero stats, got %+v", empty)
	}
}

func TestFormatInterfaceCompliance(t *testing.T) {
	fixed, _ := NewFixedFormat(8, 8)
	posit, _ := NewPositFormat(16, 1)
	formats := []Format{Float64{}, Float32{}, fixed, posit, FP16(), BF16(), MiniFloat{Label: "fp8e4m3", ExpBits: 4, FracBits: 3}}
	for _, f := range formats {
		if f.Name() == "" || f.Bits() <= 0 {
			t.Errorf("bad format metadata: %q %d", f.Name(), f.Bits())
		}
		if got := f.Quantize(0); got != 0 {
			t.Errorf("%s: Quantize(0) = %g", f.Name(), got)
		}
		if got := f.Quantize(1); got != 1 {
			t.Errorf("%s: Quantize(1) = %g (1 must be exactly representable)", f.Name(), got)
		}
	}
}

func TestQuantizeIdempotentProperty(t *testing.T) {
	fixed, _ := NewFixedFormat(8, 8)
	posit, _ := NewPositFormat(16, 1)
	formats := []Format{fixed, posit, FP16(), BF16()}
	prop := func(xi int32) bool {
		x := float64(xi) / (1 << 16)
		for _, f := range formats {
			q := f.Quantize(x)
			if f.Quantize(q) != q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
