package experiments

import (
	"fmt"

	"hetsort"
	"hetsort/internal/record"
	"hetsort/internal/stats"
)

// Table2PaperSizes are the input sizes of the paper's Table 2.
var Table2PaperSizes = []int64{1 << 21, 1 << 22, 1 << 23, 1 << 24, 1 << 25}

// Table2Paper holds the paper's measured sequential external sort times
// (seconds) per node and size, for side-by-side reporting.
var Table2Paper = map[string][]float64{
	"helmvige":   {22.92146, 51.17832, 111.40898, 235.74163, 492.02380},
	"grimgerde":  {24.88658, 44.55758, 96.29102, 212.82059, 443.86681},
	"siegrune":   {88.94593, 188.71978, 409.09711, 909.34783, 1910.8261},
	"rossweisse": {95.40269, 204.66360, 428.42470, 951.22738, 1998.72261},
}

// Table2Row is one (node, size) cell of Table 2.
type Table2Row struct {
	Node      string  // paper node name for the class
	Slowdown  float64 // simulated load factor
	InputSize int64   // keys actually sorted (scaled)
	PaperSize int64   // the paper's size this row reproduces
	Time      stats.Summary
	PaperTime float64 // the paper's seconds for this cell (0 if n/a)
}

// table2Nodes maps paper machines to simulated load factors: helmvige
// and grimgerde are the fast class; siegrune and rossweisse carry the
// forked load (4x).
var table2Nodes = []struct {
	name     string
	slowdown float64
}{
	{"helmvige", 1},
	{"grimgerde", 1},
	{"siegrune", 4},
	{"rossweisse", 4},
}

// Table2 reproduces Table 2: the sequential external sort (polyphase
// merge sort) timed on every node class across the five input sizes.
// This is also the measurement that feeds the perf-vector calibration.
func Table2(o Options) ([]Table2Row, error) {
	o = o.withDefaults()
	var rows []Table2Row
	for _, node := range table2Nodes {
		for si, paperSize := range Table2PaperSizes {
			n := o.scale(paperSize)
			sum, err := o.trialSummary(func(seed int64) (float64, error) {
				return sequentialSortTime(o, node.slowdown, n, seed)
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: table 2 %s/%d: %w", node.name, paperSize, err)
			}
			rows = append(rows, Table2Row{
				Node:      node.name,
				Slowdown:  node.slowdown,
				InputSize: n,
				PaperSize: paperSize,
				Time:      sum,
				PaperTime: Table2Paper[node.name][si],
			})
		}
	}
	return rows, nil
}

// sequentialSortTime runs the polyphase external sort of n uniform keys
// on a single simulated node with the given load factor and returns the
// virtual time.
func sequentialSortTime(o Options, slowdown float64, n int64, seed int64) (float64, error) {
	row, err := o.runSequential("sequential", nil, []metric{vsec}, slowdown, record.Uniform.Generate(int(n), seed, 1), nil)
	return row.Metrics["vsec"], err
}

// Calibrate reproduces the paper's protocol for filling the perf vector
// (E3) through hetsort.CalibrateReport: every node sorts N/P keys of
// the paper's N=2^24 (scaled) sequentially, and the ratios to the
// slowest time make the vector.  The nodes keep the cluster's order
// (nodes 0,1 loaded, 2,3 fast), so the derived vector reads {1,1,4,4}
// exactly as the paper configures it.
func Calibrate(o Options) (*hetsort.Calibration, error) {
	o = o.withDefaults()
	cfg := hetsort.Config{Loads: PaperVector.Slowdowns(), BlockKeys: o.BlockKeys,
		MemoryKeys: o.MemoryKeys, Tapes: o.Tapes, MessageKeys: o.MessageKeys, Seed: o.Seed}
	if o.OnDisk {
		cfg.WorkDir = o.tempDir()
	}
	return hetsort.CalibrateReport(cfg, o.scale(1<<24/4))
}

// Table2String renders rows in the paper's layout.
func Table2String(rows []Table2Row) string {
	t := &stats.Table{
		Title:   "Table 2: sequential external sorting (polyphase merge sort), virtual seconds",
		Headers: []string{"Node", "Load", "Input", "Time(s)", "Dev", "Paper@full", "PaperTime(s)"},
	}
	for _, r := range rows {
		t.AddRow(r.Node, r.Slowdown, r.InputSize, r.Time.Mean, r.Time.StdDev, r.PaperSize, r.PaperTime)
	}
	return t.String()
}
