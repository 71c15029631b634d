package experiments

import (
	"fmt"
	"strings"

	"hetsort/internal/extsort"
	"hetsort/internal/stats"
	"hetsort/internal/vtime"
)

// AttributionNode is one node's share of the attribution report.
type AttributionNode struct {
	Node int
	Perf int
	// Clock is the node's final virtual clock; Breakdown splits it into
	// compute/disk/network/idle (the categories sum to Clock).
	Clock     float64
	Breakdown vtime.Breakdown
	// StepBusy[s] is the node's busy time (compute+disk+network,
	// excluding barrier and receive waits) inside step s's window.
	StepBusy [5]float64
	// StepSkew[s] is StepBusy[s] divided by the step's mean busy time
	// over the nodes.  The perf-proportional distribution predicts every
	// node finishes each step together, i.e. skew 1.0; a node's skew
	// above 1 marks it as the step's straggler relative to the
	// perf-vector prediction.
	StepSkew [5]float64
}

// AttributionReport is the run-observability experiment's result: where
// each node's virtual time went, per Algorithm-1 step, with the skew of
// observed step times against the perf-vector prediction.
type AttributionReport struct {
	Keys      int64
	Time      float64
	StepTimes [5]float64
	Nodes     []AttributionNode
}

// RunAttribution sorts one paper-vector input and reports its
// attribution (the runner has checked that the categories sum to each
// node's clock).
func RunAttribution(o Options) (*AttributionReport, error) {
	o = o.withDefaults()
	v := PaperVector
	n := v.NearestValidSize(o.scale(1 << 24))
	_, res, err := o.run("attribution", point{perf: v, n: n, seed: o.Seed}, nil)
	if err != nil {
		return nil, err
	}
	rep := &AttributionReport{Keys: n, Time: res.Time, StepTimes: res.StepTimes}
	var meanBusy [5]float64
	for s := 0; s < 5; s++ {
		for i := range v {
			b := res.StepBreakdown[s][i]
			meanBusy[s] += b.Compute + b.Disk + b.Network
		}
		meanBusy[s] /= float64(len(v))
	}
	for i := range v {
		an := AttributionNode{
			Node: i, Perf: v[i],
			Clock:     res.NodeClocks[i],
			Breakdown: res.NodeBreakdown[i],
		}
		for s := 0; s < 5; s++ {
			b := res.StepBreakdown[s][i]
			an.StepBusy[s] = b.Compute + b.Disk + b.Network
			if meanBusy[s] > 0 {
				an.StepSkew[s] = an.StepBusy[s] / meanBusy[s]
			}
		}
		rep.Nodes = append(rep.Nodes, an)
	}
	return rep, nil
}

// AttributionString renders the report: the per-node time split and the
// per-step skew table.
func AttributionString(r *AttributionReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Run observability (%d keys, %.3f virtual s):\n\n", r.Keys, r.Time)
	split := &stats.Table{
		Title:   "Where the virtual time went (per node, s)",
		Headers: []string{"Node", "Perf", "Compute", "Disk", "Network", "Idle", "Clock"},
	}
	for _, n := range r.Nodes {
		split.AddRow(fmt.Sprintf("%d", n.Node), fmt.Sprintf("%d", n.Perf),
			fmt.Sprintf("%.3f", n.Breakdown.Compute), fmt.Sprintf("%.3f", n.Breakdown.Disk),
			fmt.Sprintf("%.3f", n.Breakdown.Network), fmt.Sprintf("%.3f", n.Breakdown.Idle),
			fmt.Sprintf("%.3f", n.Clock))
	}
	b.WriteString(split.String())
	b.WriteByte('\n')
	skew := &stats.Table{
		Title: "Step skew: busy time vs perf-vector prediction (1.00 = balanced)",
		Headers: []string{"Node", extsort.StepNames[0], extsort.StepNames[1],
			extsort.StepNames[2], extsort.StepNames[3], extsort.StepNames[4]},
	}
	for _, n := range r.Nodes {
		skew.AddRow(fmt.Sprintf("%d", n.Node),
			fmt.Sprintf("%.2f", n.StepSkew[0]), fmt.Sprintf("%.2f", n.StepSkew[1]),
			fmt.Sprintf("%.2f", n.StepSkew[2]), fmt.Sprintf("%.2f", n.StepSkew[3]),
			fmt.Sprintf("%.2f", n.StepSkew[4]))
	}
	b.WriteString(skew.String())
	return b.String()
}
