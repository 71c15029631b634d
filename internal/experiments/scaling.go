package experiments

import (
	"fmt"

	"hetsort/internal/cluster"
	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/stats"
)

// ScalingPoints is the cluster-size grid of the topology scaling
// experiment.  Each point repeats the paper's loaded vector {1,1,4,4},
// so the heterogeneity the pivot aggregation must handle grows with p.
var ScalingPoints = []int{4, 16, 64, 256, 1024}

// ScalingRow is one (p, topology) measurement.
type ScalingRow struct {
	P        int    `json:"p"`
	Topology string `json:"topology"`
	Radix    int    `json:"radix,omitempty"`
	N        int64  `json:"n"`
	// VSec is the sort's virtual completion time.
	VSec float64 `json:"vsec"`
	// PeakOpenStreams is the worst per-node redistribution fan-in (the
	// deterministic protocol gauge: merge inputs held open at once).
	// Flat is p; the tree stays O(r·log_r p).
	PeakOpenStreams int `json:"peak_open_streams"`
	// MaxLinkQueueHWM is the worst per-link incoming queue high-water
	// mark over all nodes and links.
	MaxLinkQueueHWM int64 `json:"max_link_queue_hwm"`
	// Rounds is the number of redistribution rounds (1 for flat,
	// ceil(log_r p) for the tree, 2 for the grid).
	Rounds int `json:"rounds"`
	// LinksCreated is how many of the p² possible links materialized.
	LinksCreated int `json:"links_created"`
	// OutputSHA is the SHA-256 of the concatenated per-node output
	// bytes; rows of the same p must agree across topologies.
	OutputSHA string `json:"output_sha256"`
}

// scalingVariants is the topology set every point runs: the flat
// baseline plus the radix-4 tree and the 2-round grid.
var scalingVariants = []struct {
	name  string
	topo  extsort.Topology
	radix int
}{
	{"flat", extsort.TopologyFlat, 0},
	{"tree", extsort.TopologyTree, 4},
	{"grid", extsort.TopologyGrid, 0},
}

// ScalingSweep measures redistribution scaling from p=4 up to maxP
// (capped at 1024): virtual time, peak open streams and per-link queue
// high-water marks for the flat, tree and grid topologies, with ~512
// keys per node.  Byte-equality of the outputs across topologies is
// asserted in-experiment at every p; a mismatch is an error, not a row.
func ScalingSweep(o Options, maxP int) ([]ScalingRow, error) {
	o = o.withDefaults()
	if maxP <= 0 {
		maxP = ScalingPoints[len(ScalingPoints)-1]
	}
	// A fixed small machine: the experiment scales p, not the per-node
	// load, so every point keeps roughly 512 keys per node.
	block, mem, tapes, msg := 64, 4096, 4, 1024
	var rows []ScalingRow
	for _, p := range ScalingPoints {
		if p > maxP {
			break
		}
		v := make(perf.Vector, 0, p)
		for len(v) < p {
			v = append(v, PaperVector...)
		}
		n := v.NearestValidSize(int64(512 * p))
		flatSHA := ""
		for _, vr := range scalingVariants {
			disks, err := o.disks()
			if err != nil {
				return nil, err
			}
			c, err := cluster.New(cluster.Config{
				Slowdowns: v.Slowdowns(),
				Net:       cluster.FastEthernet(),
				BlockKeys: block,
				Disks:     disks,
			})
			if err != nil {
				return nil, err
			}
			cfg := extsort.Config{
				Perf: v, BlockKeys: block, MemoryKeys: mem, Tapes: tapes,
				MessageKeys: msg, Topology: vr.topo, Radix: vr.radix,
			}
			sum, err := extsort.DistributeInput(c, v, record.Uniform, n, o.Seed, block, "input")
			if err != nil {
				return nil, fmt.Errorf("experiments: scaling p=%d %s: %w", p, vr.name, err)
			}
			res, err := extsort.Sort(c, cfg, "input", "output")
			if err != nil {
				return nil, fmt.Errorf("experiments: scaling p=%d %s: %w", p, vr.name, err)
			}
			if err := extsort.VerifyOutput(c, "output", block, sum); err != nil {
				return nil, fmt.Errorf("experiments: scaling p=%d %s: %w", p, vr.name, err)
			}
			row := ScalingRow{P: p, Topology: vr.name, Radix: vr.radix, N: n, VSec: res.Time}
			var hwm int64
			fan, rounds := 0.0, 1.0
			for i := 0; i < p; i++ {
				if g := c.Node(i).Metrics().Gauge("redist.fanin.streams").Value(); g > fan {
					fan = g
				}
				if g := c.Node(i).Metrics().Gauge("redist.rounds").Value(); g > rounds {
					rounds = g
				}
				if h := c.LinkQueueHWM(i); h > hwm {
					hwm = h
				}
			}
			row.PeakOpenStreams = int(fan)
			row.Rounds = int(rounds)
			row.MaxLinkQueueHWM = hwm
			row.LinksCreated = c.LinksCreated()
			sha, err := clusterOutputSHA(c, block)
			if err != nil {
				return nil, err
			}
			row.OutputSHA = sha
			if vr.name == "flat" {
				flatSHA = sha
			} else if sha != flatSHA {
				return nil, fmt.Errorf("experiments: scaling p=%d: %s output %s differs from flat %s",
					p, vr.name, sha[:12], flatSHA[:12])
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// ScalingString renders the sweep.
func ScalingString(rows []ScalingRow) string {
	t := &stats.Table{
		Title:   "Topology scaling sweep, {1,1,4,4} repeated, ~512 keys/node",
		Headers: []string{"P", "Topology", "VSec", "PeakStreams", "LinkQueueHWM", "Rounds", "Links", "SHA"},
	}
	for _, r := range rows {
		name := r.Topology
		if r.Radix > 0 {
			name = fmt.Sprintf("%s/r%d", r.Topology, r.Radix)
		}
		t.AddRow(r.P, name, fmt.Sprintf("%.3f", r.VSec), r.PeakOpenStreams,
			r.MaxLinkQueueHWM, r.Rounds, r.LinksCreated, r.OutputSHA[:12])
	}
	return t.String()
}
