package netsim

import (
	"math"
	"testing"
)

// The packetization model charges one FrameOverhead per MTU-sized frame
// (minimum one frame, even for empty payloads) on top of the one-way stack
// latency. These tests pin the frame-count semantics at the boundaries and
// the latency-bound -> bandwidth-bound crossover that separates ZRLMPI
// small-message from bulk-transfer behaviour.

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12+1e-9*math.Abs(b)
}

func TestSendSecondsFramingEdges(t *testing.T) {
	for _, name := range []string{"tcp10g", "udp10g"} {
		stack, err := StackByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rate := stack.LineRateGbps / 8 * 1e9 // bytes per second on the wire
		cases := []struct {
			name   string
			bytes  int64
			frames int64 // expected frames charged
		}{
			{"zero-byte payload still pays one frame", 0, 1},
			{"one byte", 1, 1},
			{"exactly one MTU", int64(stack.MTU), 1},
			{"MTU+1 spills into a second frame", int64(stack.MTU) + 1, 2},
			{"exactly two MTUs", 2 * int64(stack.MTU), 2},
			{"two MTUs + 1", 2*int64(stack.MTU) + 1, 3},
		}
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				wireBytes := float64(tc.bytes + tc.frames*int64(stack.FrameOverhead))
				want := stack.LatencyUs*1e-6 + wireBytes/rate/stack.AckFactor
				got := stack.SendSeconds(tc.bytes)
				if !approxEq(got, want) {
					t.Fatalf("SendSeconds(%d) = %.12g, want %.12g (%d frames)",
						tc.bytes, got, want, tc.frames)
				}
			})
		}

		// The marginal cost of the spill byte is a full frame overhead, not
		// one byte: the framing cliff the DOSA/ZRLMPI layer packs around.
		cliff := stack.SendSeconds(int64(stack.MTU)+1) - stack.SendSeconds(int64(stack.MTU))
		perByte := 1 / rate / stack.AckFactor
		wantCliff := (1 + float64(stack.FrameOverhead)) * perByte
		if !approxEq(cliff, wantCliff) {
			t.Errorf("%s: MTU+1 cliff = %.4g, want frame overhead %.4g", name, cliff, wantCliff)
		}
	}
}

// wireSeconds is the bandwidth-dependent component of a send.
func wireSeconds(s Stack, n int64) float64 {
	return s.SendSeconds(n) - s.LatencyUs*1e-6
}

// crossoverBytes returns the smallest payload whose wire time reaches the
// stack latency — the latency-bound -> bandwidth-bound boundary.
// SendSeconds is monotone non-decreasing in the payload, so binary search
// is valid.
func crossoverBytes(s Stack) int64 {
	lo, hi := int64(0), int64(1<<21)
	for lo < hi {
		mid := (lo + hi) / 2
		if wireSeconds(s, mid) >= s.LatencyUs*1e-6 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func TestLatencyToBandwidthCrossover(t *testing.T) {
	cases := []struct {
		stack  Stack
		lo, hi int64 // expected crossover window (bytes)
	}{
		// TCP10G: latency 25us, 95% goodput, 78B/frame overhead:
		// n + 78*ceil(n/1460) = 25e-6 * 1.25e9 * 0.95 = 29687.5 -> n ~ 28128.
		{TCP10G(), 27900, 28300},
		// UDP10G: latency 20us, no ack derate, 66B/frame overhead:
		// n + 66*ceil(n/1472) = 20e-6 * 1.25e9 = 25000 -> n ~ 23878.
		{UDP10G(), 23700, 24000},
	}
	var got []int64
	for _, tc := range cases {
		x := crossoverBytes(tc.stack)
		got = append(got, x)
		if x < tc.lo || x > tc.hi {
			t.Errorf("%+v: crossover at %d bytes, want within [%d, %d]",
				tc.stack, x, tc.lo, tc.hi)
		}
		// Below the crossover the stack latency dominates; above, the wire.
		if w := wireSeconds(tc.stack, x/2); w >= tc.stack.LatencyUs*1e-6 {
			t.Errorf("%+v: %d bytes should be latency-bound (wire %.4g)", tc.stack, x/2, w)
		}
		if w := wireSeconds(tc.stack, 4*x); w <= tc.stack.LatencyUs*1e-6 {
			t.Errorf("%+v: %d bytes should be bandwidth-bound (wire %.4g)", tc.stack, 4*x, w)
		}
	}
	// UDP's lower latency and ack-free goodput move its crossover earlier:
	// it turns bandwidth-bound on smaller messages than TCP.
	if got[1] >= got[0] {
		t.Errorf("udp crossover %d should precede tcp crossover %d", got[1], got[0])
	}
}
