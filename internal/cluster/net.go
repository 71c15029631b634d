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

import (
	"fmt"

	"hetsort/internal/enum"
)

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

// Network names one of the interconnect presets; its Model is the
// latency/bandwidth model.
type Network int

const (
	// NetFastEthernet models the paper's default interconnect: 100 Mb/s
	// switched Fast Ethernet driven by MPI, with the high per-message
	// software latency typical of year-2000 TCP stacks.
	NetFastEthernet Network = iota
	// NetMyrinet models the paper's second interconnect: 1.28 Gb/s
	// Myrinet with OS-bypass messaging (much lower latency, ~10x
	// bandwidth).
	NetMyrinet
	// NetIdeal is a zero-cost network, useful to isolate compute/disk
	// effects.
	NetIdeal
)

var networkNames = enum.Table[Network]{Kind: "network", Names: []string{"fast-ethernet", "myrinet", "ideal"}}

func (n Network) String() string                { return networkNames.Name(n) }
func (n Network) MarshalText() ([]byte, error)  { return networkNames.Marshal(n) }
func (n *Network) UnmarshalText(b []byte) error { return networkNames.Unmarshal(n, b) }

// Model returns the network's latency/bandwidth model, named after it.
func (n Network) Model() NetModel {
	m := NetModel{Name: n.String()}
	switch n {
	case NetFastEthernet:
		m.LatencySec, m.BytesPerSec = 120e-6, 11e6
	case NetMyrinet:
		m.LatencySec, m.BytesPerSec = 12e-6, 140e6
	}
	return m
}

// FastEthernet returns the default interconnect's model.
func FastEthernet() NetModel { return NetFastEthernet.Model() }
