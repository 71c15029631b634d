package experiments

import (
	"fmt"
	"sort"

	"hetsort"
	"hetsort/internal/dewitt"
	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
)

// Ablations runs the design-choice studies A1-A6 from DESIGN.md (A4 is
// retired).  These are the experiments the paper argues qualitatively
// (balance bought with samples or with rounds, duplicates, file counts,
// multiple disks, the DeWitt baseline) backed by measurements on the
// simulator.
func Ablations(o Options) ([]Row, error) {
	o = o.withDefaults()
	n := o.scale(1 << 22)
	balance := []metric{expansion, sampleKeys, pivotRounds}
	// pivots sorts the same uniform input once per pivot strategy.
	pivots := func(v perf.Vector, strategies ...extsort.Strategy) (pts []point) {
		for _, s := range strategies {
			pts = append(pts, point{labels: variant(s.String()), perf: v, n: v.NearestValidSize(n),
				seed: o.Seed, cfg: extsort.Config{Strategy: s}})
		}
		return pts
	}
	var rows []Row
	for _, t := range []struct {
		id   string
		cols []metric
		pts  []point
	}{
		// A1: balance bought with more samples (regular sampling, one
		// round) or with more rounds (histogram refinement), homogeneous p=8.
		{"A1", balance, pivots(perf.Homogeneous(8), extsort.RegularSampling, extsort.Histogram)},
		// A2: duplicates, perf {1,1,4,4}.
		{"A2", []metric{expansion}, paperRun(o,
			point{labels: variant("uniform")},
			point{labels: variant("zipf"), dist: record.Zipf})},
		// A5: disks per node.
		{"A5", []metric{vsec}, []point{
			{labels: variant("D=1"), perf: perf.Homogeneous(4), n: n, seed: o.Seed, disks: 1},
			{labels: variant("D=2"), perf: perf.Homogeneous(4), n: n, seed: o.Seed, disks: 2},
			{labels: variant("D=4"), perf: perf.Homogeneous(4), n: n, seed: o.Seed, disks: 4},
		}},
		// A6: DeWitt baseline vs Algorithm 1.
		{"A6", []metric{vsec, blockIOs}, paperRun(o,
			point{labels: variant("algorithm1")},
			point{labels: variant(hetsort.AlgorithmDeWitt.String()), cfg: extsort.Config{Seed: o.Seed}, algo: dewitt.Algo(8)})},
	} {
		got, err := o.table(t.id, t.cols, t.pts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, got...)
	}

	// A3: polyphase tape counts, one node.
	keys := record.Uniform.Generate(int(n), o.Seed, 1)
	for _, tapes := range []int{3, 4, 8, 15} {
		row, err := o.runSequential("A3", variant(fmt.Sprintf("tapes=%d", tapes)), []metric{vsec, phases}, 1, keys,
			func(cfg *polyphase.Config) { cfg.Tapes = tapes })
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Experiment < rows[j].Experiment })
	return rows, nil
}
