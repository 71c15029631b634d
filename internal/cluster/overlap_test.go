package cluster

import (
	"math"
	"testing"

	"hetsort/internal/vtime"
)

// newOverlapNode builds a 1-node cluster with a unit-cost model so the
// windowed-credit arithmetic is easy to state exactly: 1 s per compute
// op, 1 s per key transferred, block = 1 key → 1 s per block.
func newOverlapNode(t *testing.T) *Node {
	t.Helper()
	c, err := New(Config{
		Slowdowns: []float64{1},
		BlockKeys: 1,
		Cost:      vtime.CostModel{ComputeSec: 1, IOBlockSecPerKey: 1, SeekSec: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Node(0)
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestOverlapHidesDiskBehindCompute(t *testing.T) {
	n := newOverlapNode(t)
	n.BeginOverlap(2) // capacity: 2 block-seconds of credit
	n.ChargeCompute(3)
	// Credit is capped at the window capacity (2), so of 3 async blocks
	// 2 hide and 1 is exposed as disk time.
	n.ChargeOverlappedIOBlocks(3, false)
	n.EndOverlap()
	b := n.Attribution()
	if !approx(b.Compute, 3) || !approx(b.Disk, 1) || !approx(b.Overlapped, 2) {
		t.Fatalf("got %v, want compute=3 disk=1 overlapped=2", b)
	}
	if !approx(n.Clock(), 4) {
		t.Fatalf("clock=%f, want 4 (overlapped time must not advance it)", n.Clock())
	}
	if err := vtime.CheckAttribution(n.Clock(), b); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapDiskWithoutComputeStaysExposed(t *testing.T) {
	n := newOverlapNode(t)
	n.BeginOverlap(2)
	n.ChargeOverlappedIOBlocks(5, false) // no compute yet: nothing to hide behind
	n.EndOverlap()
	b := n.Attribution()
	if !approx(b.Disk, 5) || b.Overlapped != 0 {
		t.Fatalf("got %v, want disk=5 overlapped=0", b)
	}
}

func TestOverlapCreditDiesWithWindow(t *testing.T) {
	n := newOverlapNode(t)
	n.BeginOverlap(4)
	n.ChargeCompute(4)
	n.EndOverlap()
	// Window closed: the accrued credit must not leak into later charges.
	n.BeginOverlap(4)
	n.ChargeOverlappedIOBlocks(2, false)
	n.EndOverlap()
	b := n.Attribution()
	if !approx(b.Disk, 2) || b.Overlapped != 0 {
		t.Fatalf("credit leaked across windows: %v", b)
	}
	// And compute outside any window accrues nothing.
	n.ChargeCompute(4)
	n.BeginOverlap(4)
	n.ChargeOverlappedIOBlocks(1, false)
	n.EndOverlap()
	if b = n.Attribution(); !approx(b.Disk, 3) || b.Overlapped != 0 {
		t.Fatalf("out-of-window compute accrued credit: %v", b)
	}
}

func TestOverlapNestedWindows(t *testing.T) {
	n := newOverlapNode(t)
	n.BeginOverlap(2) // reader window: cap 2
	n.BeginOverlap(2) // writer window: cap 2 more → combined 4
	n.ChargeCompute(10)
	n.ChargeOverlappedIOBlocks(3, false) // all 3 hide (credit 4 → 1)
	n.EndOverlap()
	// Inner window closed: the remaining credit (1) survives because it
	// fits under the outer cap (2).
	n.ChargeOverlappedIOBlocks(3, false) // 1 hides, 2 exposed
	n.EndOverlap()
	b := n.Attribution()
	if !approx(b.Overlapped, 4) || !approx(b.Disk, 2) {
		t.Fatalf("got %v, want overlapped=4 disk=2", b)
	}
	if err := vtime.CheckAttribution(n.Clock(), b); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapSynchronousChargesUnaffected(t *testing.T) {
	n := newOverlapNode(t)
	n.BeginOverlap(8)
	n.ChargeCompute(10)
	n.ChargeIOBlocks(4) // synchronous charge inside a window: full price
	n.EndOverlap()
	b := n.Attribution()
	if !approx(b.Disk, 4) || b.Overlapped != 0 {
		t.Fatalf("synchronous charge was overlapped: %v", b)
	}
}

func TestResetClocksClearsOverlapState(t *testing.T) {
	n := newOverlapNode(t)
	n.BeginOverlap(4)
	n.ChargeCompute(4)
	n.cluster.ResetClocks()
	// The stale window and credit must be gone: a fresh async charge has
	// nothing to hide behind.
	n.ChargeOverlappedIOBlocks(2, false)
	b := n.Attribution()
	if !approx(b.Disk, 2) || b.Overlapped != 0 {
		t.Fatalf("ResetClocks left overlap state behind: %v", b)
	}
}

// TestOverlappedChargesFeedMetrics: the prefetch metrics are counted
// where the overlapped charge is made, so they are functions of the
// charge sequence alone — a read block wholly hidden by credit is a hit,
// one that exposed any time a stall, hits + stalls = blocks, and writes
// count as write-behind blocks only.
func TestOverlappedChargesFeedMetrics(t *testing.T) {
	c, err := New(Config{
		Slowdowns: []float64{1},
		BlockKeys: 1,
		Cost:      vtime.CostModel{ComputeSec: 0.5, IOBlockSecPerKey: 1, SeekSec: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	n.BeginOverlap(4)
	n.ChargeCompute(5)                   // credit 2.5 block-seconds
	n.ChargeOverlappedIOBlocks(1, false) // hidden whole: hit (credit 1.5)
	n.ChargeOverlappedIOBlocks(1, true)  // write-behind (credit 0.5)
	n.ChargeOverlappedIOBlocks(1, false) // half exposed: stall (credit 0)
	n.ChargeOverlappedIOBlocks(1, false) // all exposed: stall
	n.ChargeOverlappedIOBlocks(1, true)
	n.ChargeIOBlocks(1) // synchronous: none of the overlap counters
	n.EndOverlap()
	snap := n.Metrics().Snapshot()
	for name, want := range map[string]float64{
		"disk.prefetch.blocks":    3,
		"disk.prefetch.hits":      1,
		"disk.prefetch.stalls":    2,
		"disk.writebehind.blocks": 2,
	} {
		if snap[name] != want {
			t.Fatalf("%s = %v, want %v", name, snap[name], want)
		}
	}
	if b := n.Attribution(); !approx(b.Overlapped, 2.5) || !approx(b.Disk, 3.5) {
		t.Fatalf("got %v, want overlapped=2.5 disk=3.5", b)
	}
}
