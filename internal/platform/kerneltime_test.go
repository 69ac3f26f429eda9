package platform

import (
	"testing"

	"everest/internal/hls"
)

// Op codes of FuzzKernelTime; each op is 4 bytes: code, device, a, b.
const (
	ktProgram = iota
	ktProgramRegion
	ktUnprogram
	ktOffline
	ktPrice
	ktOpCount
)

// maxKTOps bounds one fuzz input's op sequence.
const maxKTOps = 64

// ktImage builds image sel of a small family in which one ID names
// several images with different prices, so a memo surviving an image
// change under the same ID misprices.
func ktImage(sel byte) Bitstream {
	bs := testBitstream(1+int(sel>>1&3), 1+int(sel>>3&1), 1+int(sel>>4&3), sel&0x40 != 0)
	bs.ID = [...]string{"a", "b"}[sel&1]
	bs.Report.LatencyCycle = 1<<18 + int64(sel>>6)<<16
	if sel == 0xff {
		bs.Config.Lanes = 3 // 512 bits do not split into 3 lanes: Execute fails
	}
	return bs
}

// ktWorkload picks one of a few workload shapes, more than a slot's memo
// holds, so replacement is exercised.
func ktWorkload(sel byte) Workload {
	return Workload{BytesIn: int64(sel%6+1) << 20, BytesOut: int64(sel%3) << 18, Batches: int(sel>>4%3) + 1}
}

// ktAt maps a byte to a modelled time; values past 200 take the
// design-time view (negative at).
func ktAt(b byte) float64 {
	if b > 200 {
		return -1
	}
	return float64(b) / 10
}

func ktOps(ops ...[4]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzKernelTime drives a node through random sequences of Program,
// ProgramRegion, Unprogram, SetDeviceOffline and KernelTime calls, and
// checks every price against an uncached Execute of the image the test
// itself loaded: the memo must never serve a timeline of an earlier image,
// including one under the same ID, and the attachment and ID checks must
// match DeviceOnlineAt and the loaded image.
func FuzzKernelTime(f *testing.F) {
	f.Add(ktOps( // reprogram under the same ID with a different image
		[4]byte{ktProgram, 0, 0, 0}, [4]byte{ktPrice, 0, 0, 1},
		[4]byte{ktProgram, 0, 2, 0}, [4]byte{ktPrice, 0, 0, 1}))
	f.Add(ktOps( // more workloads than the memo holds, then re-price the first
		[4]byte{ktProgram, 1, 1, 0}, [4]byte{ktPrice, 1, 0, 1}, [4]byte{ktPrice, 1, 1, 1},
		[4]byte{ktPrice, 1, 2, 1}, [4]byte{ktPrice, 1, 3, 1}, [4]byte{ktPrice, 1, 4, 1},
		[4]byte{ktPrice, 1, 0, 1}))
	f.Add(ktOps( // a region load displaces the whole-device image
		[4]byte{ktProgram, 0, 0, 0}, [4]byte{ktPrice, 0, 0, 2},
		[4]byte{ktProgramRegion, 0, 0, 1}, [4]byte{ktPrice, 0, 0, 2},
		[4]byte{ktProgram, 0, 0, 0}, [4]byte{ktPrice, 0, 0, 2}))
	f.Add(ktOps( // detach and reattach around priced work, design-time view
		[4]byte{ktProgram, 0, 0, 0}, [4]byte{ktOffline, 0, 1, 20},
		[4]byte{ktPrice, 0, 0, 10}, [4]byte{ktPrice, 0, 0, 30}, [4]byte{ktPrice, 0, 0, 250},
		[4]byte{ktOffline, 0, 0, 40}, [4]byte{ktPrice, 0, 0, 50}))
	f.Add(ktOps( // unprogram, an unrunnable image, then the other ID
		[4]byte{ktProgram, 0, 1, 0}, [4]byte{ktUnprogram, 0, 0, 0}, [4]byte{ktPrice, 0, 0, 0},
		[4]byte{ktProgram, 0, 0xff, 0}, [4]byte{ktPrice, 0, 0, 0}, [4]byte{ktPrice, 0, 1, 0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*maxKTOps {
			data = data[:4*maxKTOps]
		}
		n := NewNode("n", XeonModel(),
			AlveoU55C(), AlveoU280(), CloudFPGA())
		// The test's own record of each device's whole-device image.
		images := make([]Bitstream, len(n.Devices))
		loaded := make([]bool, len(n.Devices))
		for i, ops := 0, data; len(ops) >= 4; i, ops = i+1, ops[4:] {
			code, dev, a, b := ops[0]%ktOpCount, int(ops[1])%len(n.Devices), ops[2], ops[3]
			switch code {
			case ktProgram:
				bs := ktImage(a)
				if _, err := n.Program(dev, bs); err == nil {
					images[dev], loaded[dev] = bs, true
				}
			case ktProgramRegion:
				bs := ktImage(a)
				bs.Report.Resources = hls.Resources{LUT: 1000, FF: 1000}
				if _, err := n.ProgramRegion(dev, int(b)%4, bs); err == nil {
					loaded[dev] = false
				}
			case ktUnprogram:
				was, err := n.Unprogram(dev)
				if err != nil || was != loaded[dev] {
					t.Fatalf("op %d: Unprogram(%d) = %v, %v; want %v", i, dev, was, err, loaded[dev])
				}
				loaded[dev] = false
			case ktOffline:
				if _, err := n.SetDeviceOffline(dev, a&1 != 0, ktAt(b)); err != nil {
					t.Fatalf("op %d: SetDeviceOffline: %v", i, err)
				}
			case ktPrice:
				id := [...]string{"a", "b"}[a>>7]
				wl, at := ktWorkload(a), ktAt(b)
				got, ok := n.KernelTime(dev, id, wl, at)
				want, err := Execute(n.Devices[dev], images[dev], wl)
				wantOK := loaded[dev] && images[dev].ID == id && err == nil &&
					(at < 0 || n.DeviceOnlineAt(dev, at))
				if ok != wantOK {
					t.Fatalf("op %d: KernelTime(%d, %q, %+v, %g) ok=%v, want %v", i, dev, id, wl, at, ok, wantOK)
				}
				if ok && got != want {
					t.Fatalf("op %d: KernelTime(%d, %q, %+v) = %+v, uncached Execute = %+v", i, dev, id, wl, got, want)
				}
			}
		}
	})
}

// TestKernelTimeWarmAllocFree pins a warm KernelTime (memo hit) and a
// reprogram at zero allocations.
func TestKernelTimeWarmAllocFree(t *testing.T) {
	n := NewNode("n", XeonModel(), AlveoU55C())
	bs := testBitstream(2, 2, 2, true)
	if _, err := n.Program(0, bs); err != nil {
		t.Fatal(err)
	}
	wl := Workload{BytesIn: 1 << 22, BytesOut: 1 << 20, Batches: 4}
	if _, ok := n.KernelTime(0, bs.ID, wl, 0.5); !ok {
		t.Fatal("KernelTime on the loaded image must price")
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, ok := n.KernelTime(0, bs.ID, wl, 0.5); !ok {
			t.Fatal("warm KernelTime must price")
		}
	}); got != 0 {
		t.Errorf("warm KernelTime allocates %.1f per run, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := n.Program(0, bs); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Program allocates %.1f per run, want 0", got)
	}
}
