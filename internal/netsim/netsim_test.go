package netsim

import (
	"testing"
	"testing/quick"
)

// goodputGBs is the achievable payload bandwidth in GB/s: the line rate
// less framing, times the stack's ack factor.
func goodputGBs(s Stack) float64 {
	eff := float64(s.MTU) / float64(s.MTU+s.FrameOverhead)
	return s.LineRateGbps / 8 * eff * s.AckFactor
}

func TestGoodputBelowLineRate(t *testing.T) {
	for _, s := range []Stack{TCP10G(), UDP10G()} {
		g := goodputGBs(s)
		if g <= 0 || g >= s.LineRateGbps/8 {
			t.Errorf("%s goodput %g must be positive and below line rate", s.Name, g)
		}
	}
	if goodputGBs(UDP10G()) <= goodputGBs(TCP10G()) {
		t.Error("UDP goodput should exceed TCP goodput")
	}
}

func TestSendSecondsSmallVsLarge(t *testing.T) {
	s := TCP10G()
	small := s.SendSeconds(64)
	// Small messages are latency-dominated.
	if small < s.LatencyUs*1e-6 {
		t.Error("send cannot beat latency")
	}
	if small > 2*s.LatencyUs*1e-6 {
		t.Errorf("64B send %g should be latency-dominated", small)
	}
	// Large messages approach goodput.
	n := int64(1 << 30)
	large := s.SendSeconds(n)
	ideal := float64(n) / (goodputGBs(s) * 1e9)
	if large < ideal*0.95 || large > ideal*1.1 {
		t.Errorf("1GiB send %g, ideal %g", large, ideal)
	}
}

func TestSendMonotoneProperty(t *testing.T) {
	s := UDP10G()
	prop := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return s.SendSeconds(x) <= s.SendSeconds(y)+1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWANStacks(t *testing.T) {
	metro, err := StackByName("wan10g")
	if err != nil {
		t.Fatal(err)
	}
	geo, err := StackByName("wan1g")
	if err != nil {
		t.Fatal(err)
	}
	intra := Eth100G()
	// An Alveo-class configuration image (~20 MB). The WAN fetch must be
	// the dominant cold-start cost: slower than the intra-region registry
	// fabric by a wide margin, and the geo link slower than the metro one.
	const image = 20 << 20
	if metro.SendSeconds(image) <= 10*intra.SendSeconds(image) {
		t.Fatalf("wan10g image fetch %gs should dwarf eth100g %gs",
			metro.SendSeconds(image), intra.SendSeconds(image))
	}
	if geo.SendSeconds(image) <= metro.SendSeconds(image) {
		t.Fatalf("wan1g image fetch %gs should exceed wan10g %gs",
			geo.SendSeconds(image), metro.SendSeconds(image))
	}
	// Propagation latency floors: even an empty control message pays the
	// one-way WAN latency, which is what the region router prices against
	// local queue wait.
	if metro.SendSeconds(0) < metro.LatencyUs*1e-6 || geo.SendSeconds(0) < geo.LatencyUs*1e-6 {
		t.Fatal("WAN sends cannot beat propagation latency")
	}
	if geo.LatencyUs <= metro.LatencyUs {
		t.Fatal("geo WAN latency must exceed metro WAN latency")
	}
	for _, s := range []Stack{metro, geo} {
		if g := goodputGBs(s); g <= 0 || g >= s.LineRateGbps/8 {
			t.Errorf("%s goodput %g must be positive and below line rate", s.Name, g)
		}
	}
}

func TestStackByNameEth100G(t *testing.T) {
	st, err := StackByName("eth100g")
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := StackByName("tcp10g")
	if err != nil {
		t.Fatal(err)
	}
	// The registry fabric must dominate the cloudFPGA stacks on both axes:
	// a bulk bitstream transfer and the per-message latency floor.
	const bitstream = 20 << 20
	if st.SendSeconds(bitstream) >= tcp.SendSeconds(bitstream) {
		t.Fatalf("eth100g bulk transfer %gs not faster than tcp10g %gs",
			st.SendSeconds(bitstream), tcp.SendSeconds(bitstream))
	}
	if st.LatencyUs >= tcp.LatencyUs {
		t.Fatalf("eth100g latency %gus not below tcp10g %gus", st.LatencyUs, tcp.LatencyUs)
	}
	if goodputGBs(st) >= st.LineRateGbps/8 {
		t.Fatal("goodput must stay below line rate")
	}
	if _, err := StackByName("bogus"); err == nil {
		t.Fatal("bogus stack accepted")
	}
}
