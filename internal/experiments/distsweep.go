package experiments

import (
	"fmt"

	"hetsort/internal/record"
	"hetsort/internal/stats"
)

// DistributionRow is one input distribution's behaviour under external
// PSRS on the heterogeneous cluster.
type DistributionRow struct {
	Distribution record.Distribution
	Time         stats.Summary
	SMax         float64 // worst weighted expansion over the trials
}

// DistributionSweep reproduces the paper's section-3 claim (E10) that
// one-step merge-based sorting with regular sampling has "regular
// communication requirements invariant with respect to the input
// distribution": external PSRS is run over the full eight-benchmark
// input suite on the loaded {1,1,4,4} cluster, reporting time and load
// balance per distribution.  Times should vary only mildly (sorted
// inputs make step 1 cheaper); the duplicate-heavy zipf input is the
// one legitimate balance outlier (the U+d bound).
func DistributionSweep(o Options) ([]DistributionRow, error) {
	o = o.withDefaults()
	v := PaperVector
	n := v.NearestValidSize(o.scale(1 << 22))
	var rows []DistributionRow
	for _, d := range record.PaperDistributions() {
		var smax float64
		sum, err := o.trialSummary(func(seed int64) (float64, error) {
			row, _, rerr := o.run("distributions", point{perf: v, n: n, dist: d, seed: seed}, []metric{vsec, expansion})
			smax = max(smax, row.Metrics["expansion"])
			return row.Metrics["vsec"], rerr
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: distribution sweep %v: %w", d, err)
		}
		rows = append(rows, DistributionRow{Distribution: d, Time: sum, SMax: smax})
	}
	return rows, nil
}

// DistributionSweepString renders the sweep.
func DistributionSweepString(rows []DistributionRow) string {
	t := &stats.Table{
		Title:   "Distribution sensitivity: external PSRS on perf {1,1,4,4} across the benchmark suite",
		Headers: []string{"Input", "Time(s)", "Dev", "S(max)"},
	}
	for _, r := range rows {
		t.AddRow(r.Distribution.String(), r.Time.Mean, r.Time.StdDev, r.SMax)
	}
	return t.String()
}
