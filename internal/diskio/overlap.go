package diskio

import "hetsort/internal/vtime"

// Overlap is the overlapped-I/O accounting mode: the model of a drive
// that prefetches reads and drains writes behind the consumer while the
// CPU merges, the way the PDM's D parameter assumes.  The simulator has
// no real drive to keep busy, so nothing is fetched ahead or written
// behind — the one Reader and Writer move every block synchronously on
// the caller's goroutine, exactly as without Overlap, and only the
// charge differs:
//
//  1. PDM I/O counts are identical to the synchronous mode, block for
//     block.
//
//  2. Virtual time changes.  When the Accounting's Meter is a
//     vtime.OverlapMeter, a stream holds an overlap window on it from
//     construction to Release/Close and charges its blocks with
//     ChargeOverlappedIOBlocks: compute charged while the window is
//     open accrues credit (capped by the window's in-flight depth) and
//     a block's transfer time hides behind that credit.  Any other
//     meter gets plain synchronous charges.
type Overlap struct {
	// Enabled turns on overlapped charging for the Readers and Writers
	// built on an Accounting that carries this Overlap.
	Enabled bool
}

// DepthFor returns the number of blocks a stream charged to meter m
// keeps in flight: the meter's disk count when it exposes one (a node
// with D disks can keep D transfers in flight; cluster.Node exposes
// Disks()), and never below 2 (double buffering is the minimum that
// overlaps anything).
func (o Overlap) DepthFor(m vtime.Meter) int {
	if dp, ok := m.(interface{ Disks() int }); ok && dp.Disks() > 2 {
		return dp.Disks()
	}
	return 2
}
