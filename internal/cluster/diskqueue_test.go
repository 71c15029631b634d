package cluster

import (
	"fmt"
	"math"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// queueCluster builds a 1-node cluster with a unit cost model (1 key =
// 1 second of transfer) so expected times are exact small integers.
func queueCluster(t *testing.T, disks int, access pdm.AccessMode) *Cluster {
	t.Helper()
	c, err := New(Config{
		Slowdowns:    []float64{1},
		Cost:         vtime.CostModel{ComputeSec: 1, IOBlockSecPerKey: 1, SeekSec: 100},
		BlockKeys:    2, // blockSec = 2
		DisksPerNode: disks,
		DiskAccess:   access,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runOn(t *testing.T, c *Cluster, fn func(n *Node)) {
	t.Helper()
	if err := c.Run(func(n *Node) error { fn(n); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestDiskQueueParallelStep: a round-robin scan over D disks coalesces
// D blocks into one parallel step of one blockSec.
func TestDiskQueueParallelStep(t *testing.T) {
	c := queueCluster(t, 4, pdm.Striped)
	runOn(t, c, func(n *Node) {
		for i := 0; i < 8; i++ { // two full stripes
			n.ChargeDiskIOBlocks(i%4, 1)
		}
	})
	if got, want := c.MaxClock(), 2*2.0; got != want {
		t.Fatalf("8-block scan over 4 disks took %v, want %v (2 steps)", got, want)
	}
	m := c.Node(0).Metrics().Snapshot()
	if steps, width := m["disk.parallel.steps"], m["disk.step.width.avg"]; steps != 2 || width != 4 {
		t.Fatalf("steps=%v width=%v, want 2 and 4", steps, width)
	}
	for d := 0; d < 4; d++ {
		if busy := m[fmt.Sprintf("disk.%d.busy.sec", d)]; busy != 4 { // 2 blocks * blockSec each
			t.Fatalf("disk %d busy %v, want 4", d, busy)
		}
	}
}

// TestDiskQueueSameDiskSerializes: blocks hammering one disk get no
// parallelism at all.
func TestDiskQueueSameDiskSerializes(t *testing.T) {
	c := queueCluster(t, 4, pdm.Independent)
	runOn(t, c, func(n *Node) {
		n.ChargeDiskIOBlocks(2, 5)
	})
	if got, want := c.MaxClock(), 5*2.0; got != want {
		t.Fatalf("5 same-disk blocks took %v, want %v", got, want)
	}
}

// TestDiskQueueAccessModes: skipping a disk breaks a striped step but
// not an independent one — the simulation-level analogue of Theorem 1's
// striped-vs-independent gap.
func TestDiskQueueAccessModes(t *testing.T) {
	charge := func(mode pdm.AccessMode) float64 {
		c := queueCluster(t, 4, mode)
		runOn(t, c, func(n *Node) {
			n.ChargeDiskIOBlocks(0, 1)
			n.ChargeDiskIOBlocks(2, 1) // out of round-robin order
		})
		return c.MaxClock()
	}
	if got := charge(pdm.Independent); got != 2 {
		t.Fatalf("independent out-of-order pair took %v, want 2 (one step)", got)
	}
	if got := charge(pdm.Striped); got != 4 {
		t.Fatalf("striped out-of-order pair took %v, want 4 (two steps)", got)
	}
}

// TestDiskQueueSeekClosesStep: a seek breaks the streaming pattern and
// serializes against its own disk.
func TestDiskQueueSeekClosesStep(t *testing.T) {
	c := queueCluster(t, 2, pdm.Independent)
	runOn(t, c, func(n *Node) {
		n.ChargeDiskIOBlocks(0, 1) // opens a step
		n.ChargeDiskSeek(1, 1)     // closes it, occupies disk 1 for 100s
		n.ChargeDiskIOBlocks(1, 1) // must queue behind the seek
	})
	// block(2) + seek(100) + block(2): nothing overlaps.
	if got, want := c.MaxClock(), 104.0; got != want {
		t.Fatalf("clock %v, want %v", got, want)
	}
}

// TestDiskQueueD1Numerics: at D=1 the queue model is bypassed and the
// charges are bit-identical to the flat synchronous model.
func TestDiskQueueD1Numerics(t *testing.T) {
	c := queueCluster(t, 1, pdm.Striped)
	runOn(t, c, func(n *Node) {
		n.ChargeDiskIOBlocks(0, 3)
		n.ChargeIOBlocks(2)
		n.ChargeDiskSeek(0, 1)
	})
	if got, want := c.MaxClock(), float64(3)*2+float64(2)*2+100; got != want {
		t.Fatalf("D=1 clock %v, want %v", got, want)
	}
	if io := c.Node(0).DiskIO(); io != nil {
		t.Fatalf("DiskIO() at D=1 = %v, want nil", io)
	}
}

// TestDiskQueueComputeDoesNotReopenStep: compute between stripes does
// not hide the next stripe (the synchronous model only overlaps blocks
// within one stripe's readahead).
func TestDiskQueueComputeDoesNotReopenStep(t *testing.T) {
	c := queueCluster(t, 2, pdm.Striped)
	runOn(t, c, func(n *Node) {
		n.ChargeDiskIOBlocks(0, 1)
		n.ChargeDiskIOBlocks(1, 1) // same step, free
		n.ChargeCompute(10)        // 10s of compute
		n.ChargeDiskIOBlocks(0, 1) // new step at clock 12
		n.ChargeDiskIOBlocks(1, 1)
	})
	if got, want := c.MaxClock(), 2+10+2.0; got != want {
		t.Fatalf("clock %v, want %v", got, want)
	}
}

// TestDiskQueueAttribution: the queue model charges only real waits, so
// the attribution invariant must keep holding.
func TestDiskQueueAttribution(t *testing.T) {
	c := queueCluster(t, 4, pdm.Striped)
	runOn(t, c, func(n *Node) {
		for i := 0; i < 13; i++ {
			n.ChargeDiskIOBlocks(i%3, 1) // deliberately ragged pattern
			if i%5 == 0 {
				n.ChargeCompute(1)
			}
		}
		n.ChargeDiskSeek(2, 1)
	})
	n := c.Node(0)
	if err := vtime.CheckAttribution(n.Clock(), n.Attribution()); err != nil {
		t.Fatal(err)
	}
}

// TestDiskQueueEndToEnd drives real striped files through the node's
// accounting: a D=4 scan must cost about a quarter of the D=1 scan at
// identical I/O counts, per-disk counters must sum to the node counter,
// and the step width must approach D.
func TestDiskQueueEndToEnd(t *testing.T) {
	const blockKeys = 64
	const nKeys = 64 * blockKeys
	keys := make([]record.Key, nKeys)
	for i := range keys {
		keys[i] = record.Key(i * 7)
	}
	run := func(d int) (clock float64, node *Node) {
		c, err := New(Config{
			Slowdowns:    []float64{1},
			BlockKeys:    blockKeys,
			DisksPerNode: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(func(n *Node) error {
			if err := diskio.WriteFile(n.FS(), "f", keys, blockKeys, n.Acct()); err != nil {
				return err
			}
			got, err := diskio.ReadFileAll(n.FS(), "f", blockKeys, n.Acct())
			if err != nil {
				return err
			}
			if len(got) != nKeys {
				t.Errorf("D=%d: read %d keys, want %d", d, len(got), nKeys)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock(), c.Node(0)
	}
	c1, n1 := run(1)
	c4, n4 := run(4)
	if n1.IOStats() != n4.IOStats() {
		t.Fatalf("I/O counts differ: D=1 %v, D=4 %v", n1.IOStats(), n4.IOStats())
	}
	if ratio := c1 / c4; math.Abs(ratio-4) > 0.1 {
		t.Fatalf("D=4 scan speedup %v, want ~4 (D=1 %v, D=4 %v)", ratio, c1, c4)
	}
	var sum pdm.IOStats
	for _, s := range n4.DiskIO() {
		sum = sum.Add(s)
	}
	if sum != n4.IOStats() {
		t.Fatalf("per-disk sum %v != node %v", sum, n4.IOStats())
	}
	if width := n4.Metrics().Snapshot()["disk.step.width.avg"]; width < 3.9 {
		t.Fatalf("step width %v, want ~4 for a sequential scan", width)
	}
}
