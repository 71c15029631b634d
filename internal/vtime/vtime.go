// Package vtime defines the virtual-time accounting interface shared by
// the disk layer, the sequential sorts and the simulated cluster.
//
// The reproduction replaces the paper's wall-clock measurements on a real
// Alpha cluster with deterministic virtual time: every elementary unit of
// work (a comparison/move, a block transfer, a seek) is charged to a
// Meter, and the cluster's nodes advance their clocks by the charged cost
// scaled by the node's load factor.  This mirrors the paper's model of
// heterogeneity — "processors of the homogeneous cluster are loaded
// differently but the initial loads stay constant during the experiment".
package vtime

import "fmt"

// Meter receives work charges.  Implementations decide how charges map
// to time (the cluster node multiplies by its cost model and slowdown).
type Meter interface {
	// ChargeCompute charges n elementary CPU operations (comparisons,
	// moves, heap adjustments).
	ChargeCompute(n int64)
	// ChargeIOBlocks charges the transfer of n disk blocks.
	ChargeIOBlocks(n int64)
	// ChargeSeek charges n random disk repositionings.
	ChargeSeek(n int64)
}

// DiskMeter extends Meter for implementations that model D > 1 disks
// per node with independent per-disk queues: the disk index says which
// member device performs the transfer, so the meter can overlap charges
// to distinct disks into one parallel I/O step and serialize charges to
// the same disk.  cluster.Node implements it; the disk layer falls back
// to the plain Meter charges when the meter does not.
type DiskMeter interface {
	Meter
	// ChargeDiskIOBlocks charges the transfer of n blocks performed by
	// member disk d of the node.
	ChargeDiskIOBlocks(disk int, n int64)
	// ChargeDiskSeek charges n random repositionings of member disk d.
	ChargeDiskSeek(disk int, n int64)
}

// Category classifies where a slice of virtual time went.  Every clock
// advance of a simulated node is attributed to exactly one category, so
// the per-category totals sum to the node's clock (the invariant
// CheckAttribution verifies).
type Category int

const (
	// Compute is processor work: comparisons, moves, tree adjustments.
	Compute Category = iota
	// Disk is block transfers and seeks on the node's private disk.
	Disk
	// Network is messaging occupancy and protocol processing.
	Network
	// Idle is time spent waiting: blocking on a peer's message,
	// retry-backoff delays, and replayed clock time on a resumed run.
	Idle
)

func (c Category) String() string {
	switch c {
	case Compute:
		return "compute"
	case Disk:
		return "disk"
	case Network:
		return "network"
	case Idle:
		return "idle"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// TimeMeter extends Meter for implementations that also account raw
// categorized time — the network and idle-wait slices that do not come
// from work-unit charges.  cluster.Node implements it.
type TimeMeter interface {
	Meter
	// ChargeTime advances the clock by sec unscaled virtual seconds
	// attributed to cat.
	ChargeTime(cat Category, sec float64)
}

// OverlapMeter extends TimeMeter for meters that can hide disk transfer
// time behind concurrent compute — the accounting model of asynchronous
// prefetch and write-behind, where the drive transfers while the CPU
// merges (the PDM's D parameter assumes exactly this).
//
// The model is windowed: between BeginOverlap and the matching
// EndOverlap, compute charges accrue an overlap credit (bounded by the
// window's in-flight capacity, depthBlocks block-times), and every block
// charged through ChargeOverlappedIOBlocks spends credit first.  The
// spent (hidden) portion advances the clock by nothing and is recorded
// in Breakdown.Overlapped; only the remainder is charged as exposed Disk
// time.  Per window the exposed disk time is therefore
// max(0, disk − overlappable compute): the disk's I/O *count* is
// unchanged, only its virtual *time* hides.  Windows nest; credit dies
// with the last window.
type OverlapMeter interface {
	TimeMeter
	// BeginOverlap opens an overlap window whose device can keep up to
	// depthBlocks block transfers in flight (<= 0 means 2,
	// double-buffering).
	BeginOverlap(depthBlocks int)
	// EndOverlap closes the innermost window opened by BeginOverlap.
	EndOverlap()
	// ChargeOverlappedIOBlocks charges the transfer of n disk blocks
	// issued asynchronously inside an overlap window: prefetched reads,
	// or with write set, written-behind writes.  The direction changes
	// no time, only which of the meter's own counters the blocks join.
	ChargeOverlappedIOBlocks(n int64, write bool)
}

// Breakdown splits a span of virtual time over the categories.
//
// Overlapped is disk transfer time that an overlap window hid behind
// concurrent compute (see OverlapMeter): it advanced the clock by
// nothing, so it is reported as its own column and excluded from Total —
// the four wall-clock categories alone sum to the clock.
type Breakdown struct {
	// Compute is time spent in local computation (sorting, merging,
	// partitioning comparisons).
	Compute float64 `json:"compute"`
	// Disk is time spent in block transfers and seeks.
	Disk float64 `json:"disk"`
	// Network is time spent occupying links: send occupancy plus the
	// receiver's share of message latency.
	Network float64 `json:"network"`
	// Idle is time spent waiting — blocked receives, barrier waits,
	// retry backoff, and a resumed run's replayed clock.
	Idle float64 `json:"idle"`
	// Overlapped is disk transfer time hidden behind concurrent compute
	// by an overlap window.  It advanced the clock by nothing, so it is
	// informational and excluded from Total.
	Overlapped float64 `json:"overlapped,omitempty"`
}

// Charge adds sec seconds to the category.
func (b *Breakdown) Charge(cat Category, sec float64) {
	switch cat {
	case Compute:
		b.Compute += sec
	case Disk:
		b.Disk += sec
	case Network:
		b.Network += sec
	default:
		b.Idle += sec
	}
}

// Total returns the sum of the four wall-clock categories (Overlapped
// excluded: hidden disk time never advanced the clock).
func (b Breakdown) Total() float64 { return b.Compute + b.Disk + b.Network + b.Idle }

// Add returns the element-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Compute:    b.Compute + o.Compute,
		Disk:       b.Disk + o.Disk,
		Network:    b.Network + o.Network,
		Idle:       b.Idle + o.Idle,
		Overlapped: b.Overlapped + o.Overlapped,
	}
}

// Sub returns the element-wise difference b-o; useful to attribute one
// algorithm step with a shared accumulator.
func (b Breakdown) Sub(o Breakdown) Breakdown {
	return Breakdown{
		Compute:    b.Compute - o.Compute,
		Disk:       b.Disk - o.Disk,
		Network:    b.Network - o.Network,
		Idle:       b.Idle - o.Idle,
		Overlapped: b.Overlapped - o.Overlapped,
	}
}

func (b Breakdown) String() string {
	return fmt.Sprintf("Breakdown{compute=%.6f disk=%.6f network=%.6f idle=%.6f overlapped=%.6f}",
		b.Compute, b.Disk, b.Network, b.Idle, b.Overlapped)
}

// Validate checks that every category of the breakdown is non-negative
// (within AttributionTolerance below zero, for accumulated float
// error).  A negative category means a Sub pairing snapshotted
// mismatched spans, or a meter double-credited hidden time.
func (b Breakdown) Validate() error {
	for _, c := range [...]struct {
		name string
		v    float64
	}{
		{"compute", b.Compute}, {"disk", b.Disk}, {"network", b.Network},
		{"idle", b.Idle}, {"overlapped", b.Overlapped},
	} {
		if c.v < -AttributionTolerance {
			return fmt.Errorf("vtime: negative %s time %g in %v", c.name, c.v, b)
		}
	}
	return nil
}

// AttributionTolerance bounds the float drift the invariant check
// accepts between a clock and its attribution: the clock and the four
// category accumulators add the same charges in different groupings, so
// they may disagree by a few ulps after millions of additions.
const AttributionTolerance = 1e-9

// CheckAttribution verifies the attribution invariant: the breakdown's
// wall-clock categories (compute, disk, network, idle — Overlapped is
// hidden time and deliberately outside the sum) must sum to the clock
// within AttributionTolerance (relative, with an absolute floor of one
// tolerance for tiny clocks).
func CheckAttribution(clock float64, b Breakdown) error {
	tol := AttributionTolerance
	if clock > 1 {
		tol *= clock
	}
	if diff := b.Total() - clock; diff > tol || diff < -tol {
		return fmt.Errorf("vtime: attribution %v sums to %.12f but clock is %.12f (diff %g, tol %g)",
			b, b.Total(), clock, diff, tol)
	}
	return nil
}

// Nop discards all charges.  Useful in tests and for callers that only
// want I/O counts.
type Nop struct{}

// ChargeCompute implements Meter.
func (Nop) ChargeCompute(int64) {}

// ChargeIOBlocks implements Meter.
func (Nop) ChargeIOBlocks(int64) {}

// ChargeSeek implements Meter.
func (Nop) ChargeSeek(int64) {}

// ChargeTime implements TimeMeter.
func (Nop) ChargeTime(Category, float64) {}

// BeginOverlap implements OverlapMeter.
func (Nop) BeginOverlap(int) {}

// EndOverlap implements OverlapMeter.
func (Nop) EndOverlap() {}

// ChargeOverlappedIOBlocks implements OverlapMeter.
func (Nop) ChargeOverlappedIOBlocks(int64, bool) {}

// ChargeDiskIOBlocks implements DiskMeter.
func (Nop) ChargeDiskIOBlocks(int, int64) {}

// ChargeDiskSeek implements DiskMeter.
func (Nop) ChargeDiskSeek(int, int64) {}

// CostModel converts work units into virtual seconds.  The defaults are
// calibrated (see DefaultCostModel) so that a speed-1 node external-sorts
// 2^21 integers in roughly the 23 virtual seconds the paper's fastest
// node (helmvige) needed, which keeps reproduced tables directly
// comparable to the paper's.
type CostModel struct {
	// ComputeSec is the cost of one elementary CPU operation.
	ComputeSec float64
	// IOBlockSecPerKey is the transfer cost per key in a block
	// (so a block of B keys costs B*IOBlockSecPerKey).
	IOBlockSecPerKey float64
	// SeekSec is the cost of one random repositioning.
	SeekSec float64
}

// DefaultCostModel returns the calibrated cost model.  Calibration
// rationale: sorting 2^21 keys with polyphase merge sort does about
// 2^21*21 ≈ 44e6 comparisons plus ~3 read+write passes over 8 MiB.
// Year-2000 hardware in the paper needed ≈23 s for this; splitting that
// roughly 40/60 between compute and I/O gives the constants below.
func DefaultCostModel() CostModel {
	return CostModel{
		ComputeSec:       1.6e-7, // ≈6M elementary ops per second
		IOBlockSecPerKey: 9.0e-7, // ≈4.4 MB/s effective disk streaming
		SeekSec:          8.0e-3, // 8 ms per random seek
	}
}
