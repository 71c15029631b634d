package hetsort

import (
	"fmt"
	"slices"
	"strings"

	"hetsort/internal/extsort"
	"hetsort/internal/pdm"
	"hetsort/internal/progress"
	"hetsort/internal/sampling"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
)

// TimeBreakdown splits a node's virtual clock into the four activity
// categories the simulator attributes every clock advance to, plus the
// disk time Config.Overlap hid.  The four categories sum to the node's
// clock.
type TimeBreakdown = vtime.Breakdown

// Report describes one sort run: virtual time, per-step breakdown,
// final load balance, and I/O counts — the quantities the paper's
// evaluation tables report.
type Report struct {
	// Time is the virtual execution time in seconds (the makespan of
	// the simulated cluster).
	Time float64
	// StepTimes breaks Time down over the five steps of Algorithm 1,
	// in order: sequential sort, pivot selection, partitioning,
	// redistribution, final merge.
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
	// D > 1 disks (Config.Disks); nil per node at D = 1.  The per-disk
	// entries of a node sum to its NodeIO entry.
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
	// network and idle-wait time.
	NodeBreakdown []TimeBreakdown
	// StepBreakdown attributes each node's time within each of the five
	// steps (barrier to barrier; empty per-node entries for algorithms
	// without a step structure).
	StepBreakdown [5][]TimeBreakdown
	// PivotRounds is the number of step-2 collective rounds (1 for the
	// one-shot pivot strategies, the refinement round count for
	// PivotHistogram, plus one where tied cuts were settled).
	PivotRounds int
	// PivotSampleKeys is the number of key-valued samples shipped
	// through the step-2 collectives (see extsort.Result).
	PivotSampleKeys int64
	// NodeMetrics is each node's metrics-registry snapshot: link
	// traffic, merge-kernel counters, queue depths, checkpoint commit
	// latencies (see internal/metrics).
	NodeMetrics []map[string]float64
	// Timeline and Gantt hold the rendered virtual-time trace when
	// Config.Trace was set.
	Timeline string
	Gantt    string
	// TraceLog is the raw event log when Config.Trace was set; export
	// it with trace.WriteChromeTrace or trace.WriteJSONL.
	TraceLog *trace.Log `json:"-"`
}

// report builds the Report of res, a run Machine.Run has verified,
// with the machine's trace and every node's metrics snapshot.
func (m *machine) report(res *extsort.Result) *Report {
	r := &Report{
		Time:            res.Time,
		StepTimes:       res.StepTimes,
		StepNames:       extsort.StepNames,
		PartitionSizes:  res.PartitionSizes,
		NodeClocks:      res.NodeClocks,
		NodeIO:          res.NodeIO,
		StepIO:          res.StepIO,
		NodeBreakdown:   res.NodeAttr,
		StepBreakdown:   res.StepAttr,
		Perf:            append([]int(nil), m.Perf...),
		PivotRounds:     res.PivotRounds,
		PivotSampleKeys: res.PivotSampleKeys,
		NodeMetrics:     make([]map[string]float64, m.c.P()),
	}
	if e, err := sampling.WeightedExpansion(res.PartitionSizes, m.Perf); err == nil {
		r.SublistExpansion = e
	}
	for i := range r.NodeMetrics {
		r.NodeMetrics[i] = m.c.Node(i).Metrics().Snapshot()
	}
	if m.Trace != nil {
		r.TraceLog = m.Trace
		r.Timeline = m.Trace.Timeline()
		r.Gantt = m.Trace.Gantt(60)
	}
	for _, io := range res.NodeIO {
		r.ReadBlocks += io.Reads
		r.WriteBlocks += io.Writes
	}
	// At D = 1 every node's entry is nil, and so is DiskIO.
	if slices.ContainsFunc(res.DiskIO, func(dio []pdm.IOStats) bool { return dio != nil }) {
		r.DiskIO = res.DiskIO
	}
	return r
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
		return nil, fmt.Errorf("hetsort: report has no per-node attribution (%d breakdowns for %d nodes)",
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
