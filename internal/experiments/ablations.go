package experiments

import (
	"fmt"

	"hetsort/internal/cluster"
	"hetsort/internal/dewitt"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/stats"
)

// AblationRow is one line of the ablation report.
type AblationRow struct {
	ID      string
	Variant string
	Metric  string
	Value   float64
}

// Ablations runs the design-choice studies A1-A6 from DESIGN.md and
// returns the rows.  These are the experiments the paper argues
// qualitatively (PSRS vs overpartitioning, duplicates, file counts,
// quantiles, multiple disks, the DeWitt baseline) backed by
// measurements on the simulator.
func Ablations(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	var rows []AblationRow
	add := func(id, variant, metric string, v float64) {
		rows = append(rows, AblationRow{ID: id, Variant: variant, Metric: metric, Value: v})
	}

	// pivots runs Algorithm 1 out of core on the same uniform input
	// once per pivot strategy and reports each run's sublist expansion.
	pivots := func(id, metric string, v perf.Vector, cfgs ...extsort.Config) error {
		n := v.NearestValidSize(o.scale(1 << 22))
		for _, cfg := range cfgs {
			c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: o.BlockKeys})
			if err != nil {
				return err
			}
			cfg.Perf, cfg.BlockKeys, cfg.MemoryKeys, cfg.Tapes, cfg.MessageKeys, cfg.Seed =
				v, o.BlockKeys, o.MemoryKeys, o.Tapes, o.MessageKeys, o.Seed
			sum, err := extsort.DistributeInput(c, v, record.Uniform, n, o.Seed, o.BlockKeys, "input")
			if err != nil {
				return err
			}
			res, err := extsort.Sort(c, cfg, "input", "output")
			if err != nil {
				return fmt.Errorf("%s %v: %w", id, cfg.Strategy, err)
			}
			if err := extsort.VerifyOutput(c, "output", o.BlockKeys, sum); err != nil {
				return err
			}
			add(id, cfg.Strategy.String(), metric, res.SublistExpansion(v))
		}
		return nil
	}

	// A1: regular sampling vs overpartitioning, homogeneous p=8.
	if err := pivots("A1", "expansion", perf.Homogeneous(8),
		extsort.Config{Strategy: extsort.RegularSampling},
		extsort.Config{Strategy: extsort.Overpartitioning, OverFactor: 2}); err != nil {
		return nil, err
	}

	// A2: duplicates, perf {1,1,4,4}.
	for _, d := range []record.Distribution{record.Uniform, record.Zipf} {
		c, err := o.newCluster(cluster.FastEthernet())
		if err != nil {
			return nil, err
		}
		v := PaperVector
		n := v.NearestValidSize(o.scale(1 << 22))
		c.ResetClocks()
		cfg := o.extsortConfig(v)
		sum, err := extsort.DistributeInput(c, v, d, n, o.Seed, o.BlockKeys, "input")
		if err != nil {
			return nil, err
		}
		res, err := extsort.Sort(c, cfg, "input", "output")
		if err != nil {
			return nil, fmt.Errorf("A2 %v: %w", d, err)
		}
		if err := extsort.VerifyOutput(c, "output", o.BlockKeys, sum); err != nil {
			return nil, err
		}
		add("A2", d.String(), "weighted-expansion", res.SublistExpansion(v))
	}

	// A3: polyphase tape counts.
	for _, tapes := range []int{3, 4, 8, 15} {
		keys := record.Uniform.Generate(int(o.scale(1<<22)), o.Seed, 1)
		c, err := cluster.New(cluster.Config{Slowdowns: []float64{1}, BlockKeys: o.BlockKeys})
		if err != nil {
			return nil, err
		}
		fs := c.Node(0).FS()
		if err := diskio.WriteFile(fs, "in", keys, o.BlockKeys, diskio.Accounting{}); err != nil {
			return nil, err
		}
		var phases int64
		err = c.Run(func(n *cluster.Node) error {
			cfg := polyphase.Config{FS: fs, BlockKeys: o.BlockKeys,
				MemoryKeys: o.MemoryKeys, Tapes: tapes, Acct: n.Acct(), TempPrefix: "a3."}
			st, serr := polyphase.Sort(cfg, "in", "out")
			phases = st.Phases
			return serr
		})
		if err != nil {
			return nil, fmt.Errorf("A3 tapes=%d: %w", tapes, err)
		}
		add("A3", fmt.Sprintf("tapes=%d", tapes), "vsec", c.MaxClock())
		add("A3", fmt.Sprintf("tapes=%d", tapes), "phases", float64(phases))
	}

	// A4: quantile pivots vs regular sampling, perf {1,1,4,4}.
	if err := pivots("A4", "weighted-expansion", PaperVector,
		extsort.Config{Strategy: extsort.RegularSampling},
		extsort.Config{Strategy: extsort.QuantileSketch}); err != nil {
		return nil, err
	}

	// A5: disks per node.
	for _, d := range []int{1, 2, 4} {
		v := perf.Homogeneous(4)
		c, err := cluster.New(cluster.Config{
			Slowdowns: v.Slowdowns(), BlockKeys: o.BlockKeys, DisksPerNode: d,
		})
		if err != nil {
			return nil, err
		}
		cfg := o.extsortConfig(v)
		n := o.scale(1 << 22)
		if _, err := extsort.DistributeInput(c, v, record.Uniform, n, o.Seed, o.BlockKeys, "input"); err != nil {
			return nil, err
		}
		res, err := extsort.Sort(c, cfg, "input", "output")
		if err != nil {
			return nil, fmt.Errorf("A5 D=%d: %w", d, err)
		}
		add("A5", fmt.Sprintf("D=%d", d), "vsec", res.Time)
	}

	// A6: DeWitt baseline vs Algorithm 1.
	{
		v := PaperVector
		n := v.NearestValidSize(o.scale(1 << 22))
		for _, algo := range []string{"algorithm1", "dewitt"} {
			c, err := o.newCluster(cluster.FastEthernet())
			if err != nil {
				return nil, err
			}
			c.ResetClocks()
			sum, err := extsort.DistributeInput(c, v, record.Uniform, n, o.Seed, o.BlockKeys, "input")
			if err != nil {
				return nil, err
			}
			var vsec float64
			var io int64
			switch algo {
			case "algorithm1":
				res, err := extsort.Sort(c, o.extsortConfig(v), "input", "output")
				if err != nil {
					return nil, fmt.Errorf("A6 %s: %w", algo, err)
				}
				vsec = res.Time
				for _, s := range res.NodeIO {
					io += s.Total()
				}
			case "dewitt":
				res, err := dewitt.Sort(c, dewitt.Config{
					Perf: v, BlockKeys: o.BlockKeys, MemoryKeys: o.MemoryKeys,
					Tapes: o.Tapes, MessageKeys: o.MessageKeys,
					SampleFactor: 8, Seed: o.Seed,
				}, "input", "output")
				if err != nil {
					return nil, fmt.Errorf("A6 %s: %w", algo, err)
				}
				vsec = res.Time
				for _, s := range res.NodeIO {
					io += s.Total()
				}
			}
			if err := extsort.VerifyOutput(c, "output", o.BlockKeys, sum); err != nil {
				return nil, fmt.Errorf("A6 %s verify: %w", algo, err)
			}
			add("A6", algo, "vsec", vsec)
			add("A6", algo, "blockIOs", float64(io))
		}
	}
	return rows, nil
}

// AblationsString renders the rows.
func AblationsString(rows []AblationRow) string {
	t := &stats.Table{
		Title:   "Ablations (see DESIGN.md)",
		Headers: []string{"Id", "Variant", "Metric", "Value"},
	}
	for _, r := range rows {
		t.AddRow(r.ID, r.Variant, r.Metric, r.Value)
	}
	return t.String()
}
