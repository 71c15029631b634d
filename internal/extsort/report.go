package extsort

import (
	"fmt"
	"slices"
	"strings"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/progress"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
)

// Report describes one sort run: virtual time, per-step breakdown,
// final load balance, and I/O counts — the quantities the paper's
// evaluation tables report.  Algorithm 1, the DeWitt baseline and every
// caller of Machine.Run return it.
type Report struct {
	// Time is the virtual execution time in seconds (the makespan of
	// the simulated cluster).
	Time float64
	// StepTimes breaks Time down over the five steps of Algorithm 1,
	// in order: sequential sort, pivot selection, partitioning,
	// redistribution, final merge (barrier to barrier, max over nodes).
	StepTimes [5]float64
	// StepNames labels StepTimes.
	StepNames [5]string
	// PartitionSizes is the final number of keys on each node.
	PartitionSizes []int64
	// SublistExpansion is the paper's S(max) load-balance metric: the
	// worst ratio of a node's final partition to its optimal
	// perf-proportional share (1.0 = perfect).
	SublistExpansion float64
	// ReadBlocks and WriteBlocks total the PDM block transfers over
	// all nodes.
	ReadBlocks, WriteBlocks int64
	// NodeIO is each node's total PDM I/O (block transfers and seeks).
	NodeIO []pdm.IOStats
	// DiskIO[i][d] is node i's I/O on member disk d when the node has
	// D > 1 disks (Machine.DisksPerNode, the facade's Config.Disks); nil
	// at D = 1.  The per-disk entries of a node sum to its NodeIO entry.
	DiskIO [][]pdm.IOStats
	// StepIO[s][i] is node i's PDM I/O during step s of Algorithm 1,
	// barrier to barrier (empty per-node entries for algorithms without
	// a step structure).  A checkpointed step's cell includes its
	// manifest commit, one write and one seek; only a checkpointed
	// run's start manifest falls before step 1, so the step cells sum
	// to at most NodeIO.  The view without manifests is the PDM
	// counter's phase cells (Config.Progress snapshots), which charge
	// every commit to phase 0.
	StepIO [5][]pdm.IOStats
	// NodeClocks is each node's final virtual clock.
	NodeClocks []float64
	// Perf echoes the vector the run used.
	Perf []int
	// NodeBreakdown attributes each node's clock to compute, disk,
	// network and idle-wait time; the categories sum to its NodeClocks
	// entry.
	NodeBreakdown []vtime.Breakdown
	// StepBreakdown attributes each node's time within each of the five
	// steps (barrier to barrier, so the barrier wait counts as the
	// step's idle time; empty per-node entries for algorithms without a
	// step structure).
	StepBreakdown [5][]vtime.Breakdown
	// Pivots are the broadcast pivots, or the DeWitt baseline's
	// splitters (diagnostics).
	Pivots []record.Key
	// PivotRounds is the number of step-2 collective rounds (1 for the
	// one-shot pivot strategies, the refinement round count for
	// PivotHistogram, plus one where tied cuts were settled).
	PivotRounds int
	// PivotSampleKeys counts the key-valued samples entering the
	// step-2 collectives — the "samples shipped" axis of the
	// histogram-vs-sampling tradeoff.  Per strategy: regular/random
	// sampling count every node's sampled keys; Histogram counts the
	// candidate splitters broadcast per round.  Count vectors (integer
	// metadata, not key samples) are excluded.
	PivotSampleKeys int64
	// NodeMetrics is each node's metrics-registry snapshot: link
	// traffic, merge-kernel counters, queue depths, checkpoint commit
	// latencies (see internal/metrics).  Two runs of one sort give equal
	// snapshots but for the queue peaks net.fanin.hwm,
	// net.link.queue.hwm and redist.r<t>.queue.hwm, which follow the
	// host's scheduling.
	NodeMetrics []map[string]float64
	// Timeline and Gantt hold the rendered virtual-time trace when the
	// run was traced (Machine.Trace, the facade's Config.Trace).
	Timeline string
	Gantt    string
	// TraceLog is the raw event log of a traced run; export it with
	// trace.WriteChromeTrace or trace.WriteJSONL.
	TraceLog *trace.Log `json:"-"`
}

// Collect reads the part of a run's Report that the cluster holds once
// c.Run has returned: every node's clock, I/O, attribution and metrics,
// and the size of its outputName file.  The per-step fields and the
// pivots are the algorithm's to add.
func Collect(c *cluster.Cluster, v perf.Vector, outputName string) (*Report, error) {
	p := c.P()
	r := &Report{
		Time:           c.MaxClock(),
		StepNames:      StepNames,
		PartitionSizes: make([]int64, p),
		NodeIO:         make([]pdm.IOStats, p),
		DiskIO:         make([][]pdm.IOStats, p),
		NodeClocks:     make([]float64, p),
		Perf:           append([]int(nil), v...),
		NodeBreakdown:  make([]vtime.Breakdown, p),
		NodeMetrics:    make([]map[string]float64, p),
	}
	for i := range p {
		n := c.Node(i)
		sz, err := diskio.CountKeys(n.FS(), outputName)
		if err != nil {
			return nil, fmt.Errorf("extsort: counting node %d output: %w", i, err)
		}
		r.PartitionSizes[i] = sz
		r.NodeIO[i] = n.IOStats()
		r.DiskIO[i] = n.DiskIO()
		r.NodeClocks[i] = n.Clock()
		r.NodeBreakdown[i] = n.Attribution()
		r.NodeMetrics[i] = n.Metrics().Snapshot()
		r.ReadBlocks += r.NodeIO[i].Reads
		r.WriteBlocks += r.NodeIO[i].Writes
	}
	// At D = 1 every node's entry is nil, and so is DiskIO.
	if !slices.ContainsFunc(r.DiskIO, func(dio []pdm.IOStats) bool { return dio != nil }) {
		r.DiskIO = nil
	}
	if e, err := sampling.WeightedExpansion(r.PartitionSizes, v); err == nil {
		r.SublistExpansion = e
	}
	return r, nil
}

// Stragglers runs the perf-model divergence analysis over the report:
// each node's observed throughput (block transfers per non-idle virtual
// second) against its declared perf entry, and its final partition
// against its Theorem-1 share.  Nodes come back ranked worst first,
// classified as slow-node (mis-calibrated perf or contention) or
// overloaded-partition (pivot skew).  Requires the per-node attribution
// (always present for external PSRS runs).
func (r *Report) Stragglers() (*progress.StragglerReport, error) {
	if len(r.NodeBreakdown) != len(r.Perf) {
		return nil, fmt.Errorf("extsort: report has no per-node attribution (%d breakdowns for %d nodes)",
			len(r.NodeBreakdown), len(r.Perf))
	}
	busy := make([]float64, len(r.NodeBreakdown))
	for i, b := range r.NodeBreakdown {
		busy[i] = b.Compute + b.Disk + b.Network
	}
	return progress.Analyze(progress.RunStats{
		Perf:           r.Perf,
		Busy:           busy,
		IO:             r.NodeIO,
		PartitionSizes: r.PartitionSizes,
	})
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hetsort: %.3f virtual s, perf=%v, S(max)=%.4f\n",
		r.Time, r.Perf, r.SublistExpansion)
	for i, name := range r.StepNames {
		fmt.Fprintf(&b, "  %-20s %10.3fs\n", name, r.StepTimes[i])
	}
	fmt.Fprintf(&b, "  partitions: %v\n", r.PartitionSizes)
	fmt.Fprintf(&b, "  block I/O: %d reads, %d writes\n", r.ReadBlocks, r.WriteBlocks)
	if len(r.DiskIO) > 0 {
		fmt.Fprintf(&b, "  per-disk I/O (node: r/w per member disk):\n")
		for i, dio := range r.DiskIO {
			if len(dio) == 0 {
				continue
			}
			fmt.Fprintf(&b, "    %-6d", i)
			for _, io := range dio {
				fmt.Fprintf(&b, " %6d/%-6d", io.Reads, io.Writes)
			}
			fmt.Fprintf(&b, "\n")
		}
	}
	if len(r.NodeBreakdown) > 0 {
		fmt.Fprintf(&b, "  where the time went (per node, virtual s):\n")
		fmt.Fprintf(&b, "    %-6s %10s %10s %10s %10s %10s %10s\n", "node", "compute", "disk", "network", "idle", "clock", "overlapped")
		for i, t := range r.NodeBreakdown {
			fmt.Fprintf(&b, "    %-6d %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				i, t.Compute, t.Disk, t.Network, t.Idle, t.Total(), t.Overlapped)
		}
	}
	return b.String()
}
