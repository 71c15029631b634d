package experiments

import (
	"fmt"

	"hetsort/internal/cluster"
	"hetsort/internal/perf"
	"hetsort/internal/stats"
)

// Table3Paper holds the paper's Table 3 for side-by-side reporting.
type Table3PaperRow struct {
	Label     string
	InputSize int64
	ExeTime   float64
	Deviation float64
	Mean      float64
	Max       float64
	SMax      float64
}

// Table3PaperRows are the three rows the paper reports (message size
// 32 Kb, 15 intermediate files, 30 experiments).
var Table3PaperRows = []Table3PaperRow{
	{"perf {1,1,1,1}; Fast-Ethernet", 16777216, 303.94, 9.173, 4193043.8, 4204494, 1.00273},
	{"perf {1,1,4,4}; Fast-Ethernet", 16777220, 155.41, 3.645, 6816502.4, 7342910, 1.094},
	{"perf {1,1,4,4}; Myrinet", 16777220, 155.43, 3.465, 6293368.5, 7341545, 1.093},
}

// Table3Row is one measured row of the reproduced Table 3.
type Table3Row struct {
	Label     string
	Perf      perf.Vector
	Net       string
	InputSize int64
	Time      stats.Summary
	// MeanPartition is the mean final partition size of the fastest
	// class (all nodes in the homogeneous row).
	MeanPartition float64
	// MaxPartition is the largest final partition of that class.
	MaxPartition int64
	// SMax is the sublist expansion: MaxPartition over the class
	// optimum.
	SMax float64
	// Paper is the corresponding paper row.
	Paper Table3PaperRow
}

// Table3 reproduces Table 3: external PSRS on the loaded 4-node
// cluster under the three configurations.
func Table3(o Options) ([]Table3Row, error) {
	o = o.withDefaults()
	homogeneous := perf.Homogeneous(4)
	type spec struct {
		v     perf.Vector
		net   cluster.Network
		size  int64
		paper Table3PaperRow
	}
	specs := []spec{
		{homogeneous, cluster.NetFastEthernet, o.scale(1 << 24), Table3PaperRows[0]},
		{PaperVector, cluster.NetFastEthernet, PaperVector.NearestValidSize(o.scale(1 << 24)), Table3PaperRows[1]},
		{PaperVector, cluster.NetMyrinet, PaperVector.NearestValidSize(o.scale(1 << 24)), Table3PaperRows[2]},
	}
	var rows []Table3Row
	for _, s := range specs {
		fastClass := s.v.Max()
		// The paper's S(max) column reports the expansion "for the two
		// fastest processors": max fast-class partition over the fast
		// optimum.
		optFast := float64(s.size) * float64(fastClass) / float64(s.v.Sum())
		var meanSum float64
		var trials int
		var maxPart int64
		var smax float64
		sum, err := o.trialSummary(func(seed int64) (float64, error) {
			_, res, rerr := o.run("table3", point{perf: s.v, n: s.size, seed: seed,
				slowdowns: PaperVector.Slowdowns(), net: s.net}, nil)
			if rerr != nil {
				return 0, rerr
			}
			mean, mp := classPartition(res.PartitionSizes, s.v, fastClass)
			meanSum += mean
			trials++
			maxPart = max(maxPart, mp)
			smax = max(smax, float64(mp)/optFast)
			return res.Time, nil
		})
		meanPart := meanSum / float64(trials)
		if err != nil {
			return nil, fmt.Errorf("experiments: table 3 %q: %w", s.paper.Label, err)
		}
		rows = append(rows, Table3Row{
			Label:         s.paper.Label,
			Perf:          s.v,
			Net:           s.net.String(),
			InputSize:     s.size,
			Time:          sum,
			MeanPartition: meanPart,
			MaxPartition:  maxPart,
			SMax:          smax,
			Paper:         s.paper,
		})
	}
	return rows, nil
}

// classPartition returns the mean and the largest final partition over
// the nodes of the given perf class (the paper's "Mean" column reports
// the fast nodes' mean in the heterogeneous rows); 0, 0 for a class no
// node has.
func classPartition(sizes []int64, v perf.Vector, class int) (mean float64, largest int64) {
	var sum, cnt int64
	for i, s := range sizes {
		if v[i] == class {
			sum += s
			cnt++
			largest = max(largest, s)
		}
	}
	if cnt == 0 {
		return 0, 0
	}
	return float64(sum) / float64(cnt), largest
}

// Table3String renders the reproduced table next to the paper values.
func Table3String(rows []Table3Row) string {
	t := &stats.Table{
		Title:   "Table 3: external PSRS on the loaded cluster (virtual seconds)",
		Headers: []string{"Config", "Input", "Time(s)", "Dev", "Mean", "Max", "S(max)", "PaperTime", "PaperS(max)"},
	}
	for _, r := range rows {
		t.AddRow(r.Label, r.InputSize, r.Time.Mean, r.Time.StdDev,
			r.MeanPartition, r.MaxPartition, r.SMax, r.Paper.ExeTime, r.Paper.SMax)
	}
	return t.String()
}

// Speedups reproduces the gains the paper derives in section 5 (E8).
type Speedups struct {
	// HomogeneousGain is sequential-on-slow / parallel-homogeneous
	// ("the gain with four processors is 3" vs Siegrune's 909s).
	HomogeneousGain float64
	// HeteroVsFastSeq is sequential-on-fastest / parallel-hetero
	// (paper: 212s / 155s = 1.37).
	HeteroVsFastSeq float64
	// HeteroVsSlowSeq is sequential-on-slowest / parallel-hetero
	// (paper: 951s / 155s = 6.13).
	HeteroVsSlowSeq float64
	// HeteroVsHomo is parallel-homogeneous / parallel-hetero
	// (paper: 303.94/155.41 ≈ 1.96).
	HeteroVsHomo float64
	// Paper values for comparison.
	PaperHomogeneousGain, PaperHeteroVsFastSeq, PaperHeteroVsSlowSeq, PaperHeteroVsHomo float64
}

// ComputeSpeedups measures the four gains at the Table-3 input size.
func ComputeSpeedups(o Options) (*Speedups, error) {
	o = o.withDefaults()
	n := o.scale(1 << 24)

	seqFast, err := sequentialSortTime(o, 1, n, o.Seed)
	if err != nil {
		return nil, err
	}
	seqSlow, err := sequentialSortTime(o, 4, n, o.Seed)
	if err != nil {
		return nil, err
	}

	homog := perf.Homogeneous(4)
	_, resH, err := o.run("speedups", point{perf: homog, n: n, seed: o.Seed, slowdowns: PaperVector.Slowdowns()}, nil)
	if err != nil {
		return nil, err
	}
	_, resX, err := o.run("speedups", point{perf: PaperVector, n: PaperVector.NearestValidSize(n), seed: o.Seed}, nil)
	if err != nil {
		return nil, err
	}

	return &Speedups{
		HomogeneousGain:      seqSlow / resH.Time,
		HeteroVsFastSeq:      seqFast / resX.Time,
		HeteroVsSlowSeq:      seqSlow / resX.Time,
		HeteroVsHomo:         resH.Time / resX.Time,
		PaperHomogeneousGain: 3.0,
		PaperHeteroVsFastSeq: 1.37,
		PaperHeteroVsSlowSeq: 6.13,
		PaperHeteroVsHomo:    303.94 / 155.41,
	}, nil
}

func (s *Speedups) String() string {
	t := &stats.Table{
		Title:   "Section-5 speedups (measured vs paper)",
		Headers: []string{"Gain", "Measured", "Paper"},
	}
	t.AddRow("parallel homogeneous vs slow sequential", s.HomogeneousGain, s.PaperHomogeneousGain)
	t.AddRow("heterogeneous vs fastest sequential", s.HeteroVsFastSeq, s.PaperHeteroVsFastSeq)
	t.AddRow("heterogeneous vs slowest sequential", s.HeteroVsSlowSeq, s.PaperHeteroVsSlowSeq)
	t.AddRow("heterogeneous vs homogeneous config", s.HeteroVsHomo, s.PaperHeteroVsHomo)
	return t.String()
}
