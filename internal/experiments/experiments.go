// Package experiments regenerates every table, figure and in-text
// result of the paper's evaluation (section 5) on the simulated
// cluster, printing measured values side by side with the paper's.
//
// The paper's experiments ran on four Alpha 21164 nodes, two of them
// artificially loaded 4x, over Fast Ethernet and Myrinet, on inputs of
// 2^21..2^25 integers with 30 repetitions.  We reproduce the same
// experiment definitions; Options.SizeShift scales the input sizes down
// (dividing by 2^shift) so the suite runs in seconds while preserving
// every comparison the paper makes.  Absolute virtual times at shift 0
// are calibrated to land near the paper's wall-clock numbers.
package experiments

import (
	"cmp"

	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/stats"
)

// PaperVector is the perf vector the paper calibrates for its cluster:
// nodes 0,1 are the loaded (4x slower) machines, nodes 2,3 the fast
// ones, so the vector reads {1,1,4,4} exactly as in the paper.
var PaperVector = perf.Vector{1, 1, 4, 4}

// Options scales and parameterises the whole suite.
type Options struct {
	// SizeShift right-shifts every paper input size (default 6:
	// 2^21 -> 32768 keys, 2^25 -> 524288 keys).  Shift 0 reproduces
	// the paper's full sizes (slow: tens of millions of real keys).
	SizeShift uint
	// Trials is the number of repetitions per measurement (paper: 30;
	// default 5).  Each trial uses a different input seed.
	Trials int
	// BlockKeys is the disk block size B (default 2048 keys = 8 KiB,
	// scaled down with SizeShift to keep n/B meaningful, min 64).
	BlockKeys int
	// MemoryKeys is the per-node memory M (default 2^20 scaled by
	// SizeShift, min Tapes*BlockKeys*2).
	MemoryKeys int
	// Tapes is the polyphase file count (default 15, as the paper).
	Tapes int
	// MessageKeys is the redistribution message size (default 8192
	// integers = the paper's 32 Kb).
	MessageKeys int
	// OnDisk uses real temporary directories instead of in-memory
	// filesystems.
	OnDisk bool
	// TempDir is the root for OnDisk mode.
	TempDir string
	// Seed offsets every trial's input seed.
	Seed int64
	// MaxP caps the cluster sizes the scaling and histsort experiments
	// sweep to (0 = no cap).
	MaxP int
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 5
	}
	if o.SizeShift == 0 && o.BlockKeys == 0 {
		// Full scale: the paper's parameters.
		o.BlockKeys = 2048
	}
	if o.Tapes <= 0 {
		o.Tapes = 15
	}
	if o.BlockKeys <= 0 {
		o.BlockKeys = 2048 >> min(o.SizeShift, 5)
		if o.BlockKeys < 64 {
			o.BlockKeys = 64
		}
	}
	if o.MemoryKeys <= 0 {
		o.MemoryKeys = int(int64(1<<20) >> o.SizeShift)
		if floor := o.Tapes * o.BlockKeys * 2; o.MemoryKeys < floor {
			o.MemoryKeys = floor
		}
	}
	if o.MessageKeys <= 0 {
		o.MessageKeys = 8192 >> min(o.SizeShift, 5)
		if o.MessageKeys < o.BlockKeys {
			o.MessageKeys = o.BlockKeys
		}
	}
	return o
}

// scale applies SizeShift to a paper-scale size.
func (o Options) scale(paperSize int64) int64 {
	s := paperSize >> o.SizeShift
	if s < 1 {
		s = 1
	}
	return s
}

// disks returns the node-disk opener: nil (in-memory disks) unless OnDisk.
func (o Options) disks() func(int) (diskio.FS, error) {
	if !o.OnDisk {
		return nil
	}
	return diskio.NodeDirs(o.tempDir())
}

// tempDir is the root of the node directories in OnDisk mode.
func (o Options) tempDir() string { return cmp.Or(o.TempDir, "hetsort-experiments") }

// trialSummary repeats a measured quantity over Options.Trials seeds.
func (o Options) trialSummary(f func(seed int64) (float64, error)) (stats.Summary, error) {
	return stats.Repeat(o.Trials, func(i int) (float64, error) {
		return f(o.Seed + int64(i)*7919)
	})
}
