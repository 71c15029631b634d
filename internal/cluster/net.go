// Package cluster simulates the paper's computing platform: a cluster of
// p nodes, each with its own processor, disk and clock, connected by a
// commodity network.  Nodes execute real Go code (goroutine per node) on
// real data, while a deterministic virtual clock accounts for time:
//
//   - local work (comparisons, block transfers, seeks) advances the
//     node's own clock, scaled by the node's slowdown factor — this is
//     how "processors at different speed" are modelled, matching the
//     paper's constant-initial-load assumption;
//   - messages are timestamped: the receiver's clock becomes
//     max(receiver clock, sender completion + latency + size/bandwidth),
//     the standard conservative rule for distributed simulation.
//
// The network is parameterised by latency and bandwidth, with presets
// for the paper's two interconnects (Fast Ethernet and Myrinet).
package cluster

import "fmt"

// NetModel is a latency/bandwidth model of an interconnect.
type NetModel struct {
	// Name labels the model in reports.
	Name string
	// LatencySec is the per-message latency in seconds (software
	// overhead plus wire latency).
	LatencySec float64
	// BytesPerSec is the point-to-point bandwidth.
	BytesPerSec float64
}

// TransferSec returns the sender's occupancy for a message of n bytes:
// one latency of per-message software overhead plus the transmit time.
// The message arrives one wire latency after that.
func (m NetModel) TransferSec(n int64) float64 {
	if m.BytesPerSec <= 0 {
		return m.LatencySec
	}
	return m.LatencySec + float64(n)/m.BytesPerSec
}

func (m NetModel) String() string {
	return fmt.Sprintf("%s(lat=%.0fus bw=%.1fMB/s)", m.Name, m.LatencySec*1e6, m.BytesPerSec/1e6)
}

// FastEthernet models the paper's default interconnect: 100 Mb/s
// switched Fast Ethernet driven by MPI, with the high per-message
// software latency typical of year-2000 TCP stacks.
func FastEthernet() NetModel {
	return NetModel{Name: "fast-ethernet", LatencySec: 120e-6, BytesPerSec: 11e6}
}

// Myrinet models the paper's second interconnect: 1.28 Gb/s Myrinet
// with OS-bypass messaging (much lower latency, ~10x bandwidth).
func Myrinet() NetModel {
	return NetModel{Name: "myrinet", LatencySec: 12e-6, BytesPerSec: 140e6}
}

// Ideal is a zero-cost network, useful to isolate compute/disk effects.
func Ideal() NetModel {
	return NetModel{Name: "ideal", LatencySec: 0, BytesPerSec: 0}
}

// NetByName returns the preset whose Name is name; "" means
// FastEthernet.
func NetByName(name string) (NetModel, error) {
	if name == "" {
		return FastEthernet(), nil
	}
	for _, m := range []NetModel{FastEthernet(), Myrinet(), Ideal()} {
		if m.Name == name {
			return m, nil
		}
	}
	return NetModel{}, fmt.Errorf("unknown network %q (want fast-ethernet, myrinet or ideal)", name)
}
