// Package netsim models the 10 Gbps TCP/UDP network stack of the IBM
// cloudFPGA platform (paper §III) and the ZRLMPI unified programming model
// (Ringlein et al., FCCM 2020 — paper ref [21]): message passing between
// network-attached FPGAs and hosts with hardware-agnostic synchronous
// communication routines.
//
// Time is modelled in seconds; the packetization model charges per-MTU
// framing overhead, which is what makes small messages latency-bound and
// large messages bandwidth-bound — the behaviour the DOSA/ZRLMPI layer is
// designed around.
package netsim

import (
	"fmt"
)

// Stack is one transport configuration.
type Stack struct {
	Name          string
	LineRateGbps  float64 // physical line rate
	MTU           int     // payload bytes per frame
	FrameOverhead int     // header bytes per frame (eth+ip+proto)
	LatencyUs     float64 // one-way wire+stack latency
	AckFactor     float64 // goodput derate for acknowledged transports
}

// TCP10G returns the cloudFPGA 10G TCP stack model.
func TCP10G() Stack {
	return Stack{Name: "tcp10g", LineRateGbps: 10, MTU: 1460, FrameOverhead: 78, LatencyUs: 25, AckFactor: 0.95}
}

// UDP10G returns the cloudFPGA 10G UDP stack model.
func UDP10G() Stack {
	return Stack{Name: "udp10g", LineRateGbps: 10, MTU: 1472, FrameOverhead: 66, LatencyUs: 20, AckFactor: 1.0}
}

// Eth100G returns the data-center fabric joining federated sites to the
// bitstream registry (jumbo frames, RDMA-class latency). Deployment tiers
// price registry→site bitstream transfers over it; it is an order of
// magnitude faster than the cloudFPGA 10G stacks, so reconfiguration
// latency, not the wire, dominates a cold deploy.
func Eth100G() Stack {
	return Stack{Name: "eth100g", LineRateGbps: 100, MTU: 4096, FrameOverhead: 58, LatencyUs: 3, AckFactor: 1.0}
}

// WAN10G returns the metro-scale inter-region fabric: a leased 10G wave
// between data centers in the same metropolitan area. Bandwidth matches
// the intra-site cloudFPGA stacks but the propagation latency is three
// orders of magnitude higher, so handing a workflow (or a bitstream
// image) across regions is latency-priced, not bandwidth-priced, for
// anything small.
func WAN10G() Stack {
	return Stack{Name: "wan10g", LineRateGbps: 10, MTU: 1460, FrameOverhead: 78, LatencyUs: 5000, AckFactor: 0.95}
}

// WAN1G returns the geo-scale inter-region fabric: a shared 1G VPN link
// between continents. Both the wire time of a multi-megabyte
// configuration image and the 40 ms propagation latency are significant,
// which is what makes cold inter-region bitstream fetches dominate
// cold-start latency — and speculative prefetch worth building.
func WAN1G() Stack {
	return Stack{Name: "wan1g", LineRateGbps: 1, MTU: 1460, FrameOverhead: 78, LatencyUs: 40000, AckFactor: 0.9}
}

// StackByName resolves "tcp10g", "udp10g", "eth100g", "wan10g", or "wan1g".
func StackByName(name string) (Stack, error) {
	switch name {
	case "tcp10g":
		return TCP10G(), nil
	case "udp10g":
		return UDP10G(), nil
	case "eth100g":
		return Eth100G(), nil
	case "wan10g":
		return WAN10G(), nil
	case "wan1g":
		return WAN1G(), nil
	default:
		return Stack{}, fmt.Errorf("netsim: unknown stack %q (want tcp10g, udp10g, eth100g, wan10g, or wan1g)", name)
	}
}

// SendSeconds models a one-way transfer of n payload bytes.
func (s Stack) SendSeconds(n int64) float64 {
	if n < 0 {
		n = 0
	}
	frames := (n + int64(s.MTU) - 1) / int64(s.MTU)
	if frames == 0 {
		frames = 1
	}
	wire := float64(n+frames*int64(s.FrameOverhead)) / (s.LineRateGbps / 8 * 1e9)
	return s.LatencyUs*1e-6 + wire/s.AckFactor
}
