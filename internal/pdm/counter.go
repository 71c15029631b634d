package pdm

import (
	"fmt"
	"sync/atomic"
)

// PhaseCount is the number of I/O attribution phases a Counter tracks:
// phase 0 collects unattributed transfers (setup, checkpoint manifests,
// recovery), phases 1..5 map to Algorithm 1's five steps.
const PhaseCount = 6

// PhaseNames labels the phases: the one spelling of Algorithm 1's step
// names, which extsort, progress and the check harness all read.
var PhaseNames = [PhaseCount]string{
	"0:setup",
	"1:sequential-sort",
	"2:pivot-selection",
	"3:partitioning",
	"4:redistribution",
	"5:final-merge",
}

// Counter accumulates I/O operations in PDM units (block transfers).  It
// is safe for concurrent use; the disk layer charges it from every node
// goroutine.  The zero value is ready to use.
//
// Besides the run totals, every operation is also attributed to the
// current phase (SetPhase), so observability consumers can split block
// I/O by Algorithm-1 step without bracketing snapshots.
type Counter struct {
	readBlocks  atomic.Int64
	writeBlocks atomic.Int64
	seeks       atomic.Int64

	phase  atomic.Int32
	phases [PhaseCount]phaseCell
}

type phaseCell struct {
	reads, writes, seeks atomic.Int64
}

// SetPhase selects the phase (0..PhaseCount-1) subsequent operations are
// attributed to.  Out-of-range values clamp to phase 0.
func (c *Counter) SetPhase(p int) {
	if p < 0 || p >= PhaseCount {
		p = 0
	}
	c.phase.Store(int32(p))
}

// CurrentPhase returns the phase operations are being attributed to.
func (c *Counter) CurrentPhase() int { return int(c.phase.Load()) }

// AddRead records n block reads.
func (c *Counter) AddRead(n int64) {
	c.readBlocks.Add(n)
	c.phases[c.phase.Load()].reads.Add(n)
}

// AddWrite records n block writes.
func (c *Counter) AddWrite(n int64) {
	c.writeBlocks.Add(n)
	c.phases[c.phase.Load()].writes.Add(n)
}

// AddSeek records n random repositionings (not counted in PDM transfers
// but useful to observe access patterns).
func (c *Counter) AddSeek(n int64) {
	c.seeks.Add(n)
	c.phases[c.phase.Load()].seeks.Add(n)
}

// Reads returns the number of block reads recorded so far.
func (c *Counter) Reads() int64 { return c.readBlocks.Load() }

// Writes returns the number of block writes recorded so far.
func (c *Counter) Writes() int64 { return c.writeBlocks.Load() }

// Seeks returns the number of seeks recorded so far.
func (c *Counter) Seeks() int64 { return c.seeks.Load() }

// Total returns reads+writes, the PDM I/O complexity measure.
func (c *Counter) Total() int64 { return c.Reads() + c.Writes() }

// Reset zeroes the counter, including the per-phase attribution and the
// current phase.
func (c *Counter) Reset() {
	c.readBlocks.Store(0)
	c.writeBlocks.Store(0)
	c.seeks.Store(0)
	c.phase.Store(0)
	for i := range c.phases {
		c.phases[i].reads.Store(0)
		c.phases[i].writes.Store(0)
		c.phases[i].seeks.Store(0)
	}
}

// Snapshot returns an immutable copy of the current values.
func (c *Counter) Snapshot() IOStats {
	return IOStats{Reads: c.Reads(), Writes: c.Writes(), Seeks: c.Seeks()}
}

// PhaseSnapshot returns an immutable copy of the per-phase attribution:
// index 0 is unattributed I/O, 1..5 are Algorithm 1's steps.
func (c *Counter) PhaseSnapshot() [PhaseCount]IOStats {
	var out [PhaseCount]IOStats
	for i := range c.phases {
		out[i] = IOStats{
			Reads:  c.phases[i].reads.Load(),
			Writes: c.phases[i].writes.Load(),
			Seeks:  c.phases[i].seeks.Load(),
		}
	}
	return out
}

// IOStats is an immutable snapshot of a Counter.
type IOStats struct {
	Reads  int64
	Writes int64
	Seeks  int64
}

// Total returns reads+writes.
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// Add returns the element-wise sum of two snapshots.
func (s IOStats) Add(t IOStats) IOStats {
	return IOStats{Reads: s.Reads + t.Reads, Writes: s.Writes + t.Writes, Seeks: s.Seeks + t.Seeks}
}

// Sub returns the element-wise difference s-t; useful to measure one
// algorithm step with a shared counter.
func (s IOStats) Sub(t IOStats) IOStats {
	return IOStats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes, Seeks: s.Seeks - t.Seeks}
}

func (s IOStats) String() string {
	return fmt.Sprintf("IO{reads=%d writes=%d seeks=%d total=%d}", s.Reads, s.Writes, s.Seeks, s.Total())
}
