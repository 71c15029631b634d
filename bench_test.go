// Benchmarks regenerating the paper's evaluation.  Each benchmark runs
// one experiment end to end per iteration at a reduced input scale
// (SizeShift 8 = 1/256 of the paper's sizes) and reports the measured
// *virtual* time as "vsec" custom metrics next to the usual wall-clock
// ns/op.  cmd/benchtab prints the same experiments as paper-style
// tables, including at full scale with -shift 0.
package hetsort

import (
	"fmt"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/dewitt"
	"hetsort/internal/diskio"
	"hetsort/internal/experiments"
	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
)

func benchOptions() experiments.Options {
	return experiments.Options{SizeShift: 8, Trials: 1, Tapes: 6}
}

// BenchmarkTable1Config regenerates Table 1 (E1): the simulated testbed
// description.
func BenchmarkTable1Config(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(o)
		if len(rows) != 4 {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkTable2Sequential regenerates Table 2 (E2): the sequential
// external sort on both node classes across the five paper sizes.
func BenchmarkTable2Sequential(b *testing.B) {
	o := benchOptions()
	var vsec float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		vsec = rows[len(rows)-1].Time.Mean
	}
	b.ReportMetric(vsec, "vsec-largest-loaded")
}

// BenchmarkCalibration regenerates E3: the perf-vector calibration
// protocol, which must recover {1,1,4,4}.
func BenchmarkCalibration(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		cal, err := experiments.Calibrate(o)
		if err != nil {
			b.Fatal(err)
		}
		for j, want := range experiments.PaperVector {
			if cal.Vector[j] != want {
				b.Fatalf("calibrated %v", cal.Vector)
			}
		}
	}
}

// BenchmarkPacketSize regenerates E4: the packet-size sweep, one
// sub-benchmark per message size (paper: 133.61 s at 8 ints vs 32.6 s
// at 8K ints for 2^21 keys).
func BenchmarkPacketSize(b *testing.B) {
	o := benchOptions()
	for _, msg := range experiments.PacketSizes {
		b.Run(fmt.Sprintf("msg=%d", msg), func(b *testing.B) {
			o := o
			o.MessageKeys = msg >> o.SizeShift
			if o.MessageKeys < 1 {
				o.MessageKeys = 1
			}
			var vsec float64
			for i := 0; i < b.N; i++ {
				v := perf.Homogeneous(4)
				c, err := cluster.New(cluster.Config{
					Slowdowns: experiments.PaperVector.Slowdowns(),
					BlockKeys: 64,
				})
				if err != nil {
					b.Fatal(err)
				}
				cfg := extsort.Config{Perf: v, BlockKeys: 64, MemoryKeys: 4096,
					Tapes: 6, MessageKeys: o.MessageKeys}
				n := int64(1<<21) >> o.SizeShift
				sum, err := extsort.DistributeInput(c, v, record.Uniform, n, int64(i), 64, "in")
				if err != nil {
					b.Fatal(err)
				}
				res, err := extsort.Sort(c, cfg, "in", "out")
				if err != nil {
					b.Fatal(err)
				}
				if err := extsort.VerifyOutput(c, "out", 64, sum); err != nil {
					b.Fatal(err)
				}
				vsec = res.Time
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}

// table3Bench runs one Table-3 row (E5/E6/E7) per iteration.
func table3Bench(b *testing.B, v perf.Vector, net cluster.NetModel) {
	o := benchOptions()
	var vsec, smax float64
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{
			Slowdowns: experiments.PaperVector.Slowdowns(),
			Net:       net,
			BlockKeys: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		n := v.NearestValidSize(int64(1<<24) >> o.SizeShift)
		cfg := extsort.Config{Perf: v, BlockKeys: 64, MemoryKeys: 4096, Tapes: 6, MessageKeys: 512}
		sum, err := extsort.DistributeInput(c, v, record.Uniform, n, int64(i), 64, "in")
		if err != nil {
			b.Fatal(err)
		}
		res, err := extsort.Sort(c, cfg, "in", "out")
		if err != nil {
			b.Fatal(err)
		}
		if err := extsort.VerifyOutput(c, "out", 64, sum); err != nil {
			b.Fatal(err)
		}
		vsec = res.Time
		smax = res.SublistExpansion(v)
	}
	b.ReportMetric(vsec, "vsec")
	b.ReportMetric(smax, "smax")
}

// BenchmarkTable3HomogeneousFE is E5: perf {1,1,1,1} on the loaded
// cluster over Fast Ethernet (paper: 303.94 s, S(max)=1.00273).
func BenchmarkTable3HomogeneousFE(b *testing.B) {
	table3Bench(b, perf.Homogeneous(4), cluster.FastEthernet())
}

// BenchmarkTable3HeterogeneousFE is E6: perf {1,1,4,4} over Fast
// Ethernet (paper: 155.41 s, S(max)=1.094).
func BenchmarkTable3HeterogeneousFE(b *testing.B) {
	table3Bench(b, experiments.PaperVector, cluster.FastEthernet())
}

// BenchmarkTable3HeterogeneousMyrinet is E7: perf {1,1,4,4} over
// Myrinet (paper: 155.43 s — no improvement over Fast Ethernet).
func BenchmarkTable3HeterogeneousMyrinet(b *testing.B) {
	table3Bench(b, experiments.PaperVector, cluster.Myrinet())
}

// BenchmarkSpeedups regenerates E8: the section-5 gain figures.
func BenchmarkSpeedups(b *testing.B) {
	o := benchOptions()
	var het float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.ComputeSpeedups(o)
		if err != nil {
			b.Fatal(err)
		}
		het = s.HeteroVsHomo
	}
	b.ReportMetric(het, "hetero-vs-homo-gain")
}

// BenchmarkFigure1PDM regenerates E9: striped vs independent disk I/O
// counts under the PDM.
func BenchmarkFigure1PDM(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure1PDM(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationDuplicates is A2: the effect of duplicate-heavy
// inputs on load balance (the paper's U+d bound discussion, §3.1).
func BenchmarkAblationDuplicates(b *testing.B) {
	for _, d := range []record.Distribution{record.Uniform, record.Zipf} {
		b.Run(d.String(), func(b *testing.B) {
			v := perf.Vector{1, 1, 4, 4}
			var exp float64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
				if err != nil {
					b.Fatal(err)
				}
				cfg := extsort.Config{Perf: v, BlockKeys: 64, MemoryKeys: 4096, Tapes: 6, MessageKeys: 512}
				n := v.NearestValidSize(1 << 16)
				sum, err := extsort.DistributeInput(c, v, d, n, int64(i), 64, "in")
				if err != nil {
					b.Fatal(err)
				}
				res, err := extsort.Sort(c, cfg, "in", "out")
				if err != nil {
					b.Fatal(err)
				}
				if err := extsort.VerifyOutput(c, "out", 64, sum); err != nil {
					b.Fatal(err)
				}
				exp = res.SublistExpansion(v)
			}
			b.ReportMetric(exp, "expansion")
		})
	}
}

// BenchmarkAblationFileCount is A3: polyphase tape-count sweep (the
// paper fixed 15 intermediate files; fewer tapes mean more phases).
func BenchmarkAblationFileCount(b *testing.B) {
	for _, tapes := range []int{3, 4, 6, 8, 15} {
		b.Run(fmt.Sprintf("tapes=%d", tapes), func(b *testing.B) {
			keys := record.Uniform.Generate(1<<16, 9, 1)
			var vsec float64
			var phases int64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Config{Slowdowns: []float64{1}, BlockKeys: 64})
				if err != nil {
					b.Fatal(err)
				}
				fs := c.Node(0).FS()
				if err := diskio.WriteFile(fs, "in", keys, 64, diskio.Accounting{}); err != nil {
					b.Fatal(err)
				}
				err = c.Run(func(n *cluster.Node) error {
					cfg := polyphase.Config{FS: fs, BlockKeys: 64, MemoryKeys: 4096,
						Tapes: tapes, Acct: n.Acct(), TempPrefix: "t."}
					st, serr := polyphase.Sort(cfg, "in", "out")
					phases = st.Phases
					return serr
				})
				if err != nil {
					b.Fatal(err)
				}
				vsec = c.MaxClock()
			}
			b.ReportMetric(vsec, "vsec")
			b.ReportMetric(float64(phases), "phases")
		})
	}
}

// BenchmarkPolyphaseWallClock measures the real (host) throughput of
// the sequential external sort on an in-memory filesystem.
func BenchmarkPolyphaseWallClock(b *testing.B) {
	keys := record.Uniform.Generate(1<<18, 3, 1)
	b.SetBytes(int64(len(keys)) * record.KeySize)
	for i := 0; i < b.N; i++ {
		fs := diskio.NewMemFS()
		if err := diskio.WriteFile(fs, "in", keys, 1024, diskio.Accounting{}); err != nil {
			b.Fatal(err)
		}
		cfg := polyphase.Config{FS: fs, BlockKeys: 1024, MemoryKeys: 1 << 15, Tapes: 8,
			Acct: diskio.Accounting{}, TempPrefix: "t."}
		if _, err := polyphase.Sort(cfg, "in", "out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExternalPSRSWallClock measures the real throughput of the
// full parallel pipeline.
func BenchmarkExternalPSRSWallClock(b *testing.B) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 18)
	b.SetBytes(n * record.KeySize)
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 1024})
		if err != nil {
			b.Fatal(err)
		}
		cfg := extsort.Config{Perf: v, BlockKeys: 1024, MemoryKeys: 1 << 15, Tapes: 8, MessageKeys: 8192}
		if _, err := extsort.DistributeInput(c, v, record.Uniform, n, int64(i), 1024, "in"); err != nil {
			b.Fatal(err)
		}
		if _, err := extsort.Sort(c, cfg, "in", "out"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMultiDisk is A5: the PDM D parameter — nodes with
// 1, 2 or 4 independent disks running the same Algorithm-1 workload.
func BenchmarkAblationMultiDisk(b *testing.B) {
	for _, d := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("D=%d", d), func(b *testing.B) {
			v := perf.Homogeneous(4)
			var vsec float64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Config{
					Slowdowns: v.Slowdowns(), BlockKeys: 64, DisksPerNode: d,
				})
				if err != nil {
					b.Fatal(err)
				}
				cfg := extsort.Config{Perf: v, BlockKeys: 64, MemoryKeys: 4096, Tapes: 6, MessageKeys: 512}
				if _, err := extsort.DistributeInput(c, v, record.Uniform, 1<<16, int64(i), 64, "in"); err != nil {
					b.Fatal(err)
				}
				res, err := extsort.Sort(c, cfg, "in", "out")
				if err != nil {
					b.Fatal(err)
				}
				vsec = res.Time
			}
			b.ReportMetric(vsec, "vsec")
		})
	}
}

// BenchmarkAblationBaselineDeWitt is A6: Algorithm 1 vs the DeWitt
// et al. probabilistic-splitting distribution sort (the closest prior
// algorithm per the paper's section 2) — virtual time and total I/O.
func BenchmarkAblationBaselineDeWitt(b *testing.B) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 16)
	run := func(b *testing.B, algo string) (vsec float64, io int64) {
		c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := extsort.DistributeInput(c, v, record.Uniform, n, 1, 64, "in"); err != nil {
			b.Fatal(err)
		}
		switch algo {
		case "algorithm1":
			res, err := extsort.Sort(c, extsort.Config{
				Perf: v, BlockKeys: 64, MemoryKeys: 4096, Tapes: 6, MessageKeys: 512,
			}, "in", "out")
			if err != nil {
				b.Fatal(err)
			}
			vsec = res.Time
			for _, s := range res.NodeIO {
				io += s.Total()
			}
		case "dewitt":
			// SampleFactor scaled down with the input so the sampling
			// seeks (8 ms each) do not dominate at bench scale.
			res, err := dewitt.Sort(c, dewitt.Config{
				Perf: v, BlockKeys: 64, MemoryKeys: 4096, Tapes: 6, MessageKeys: 512,
				SampleFactor: 2,
			}, "in", "out")
			if err != nil {
				b.Fatal(err)
			}
			vsec = res.Time
			for _, s := range res.NodeIO {
				io += s.Total()
			}
		}
		return vsec, io
	}
	for _, algo := range []string{"algorithm1", "dewitt"} {
		b.Run(algo, func(b *testing.B) {
			var vsec float64
			var io int64
			for i := 0; i < b.N; i++ {
				vsec, io = run(b, algo)
			}
			b.ReportMetric(vsec, "vsec")
			b.ReportMetric(float64(io), "blockIOs")
		})
	}
}

// BenchmarkAblationCheckpoint is A7: the price of crash tolerance —
// the same sort with checkpointing off, on, and on with a node killed
// during redistribution and the run resumed from its manifests.
func BenchmarkAblationCheckpoint(b *testing.B) {
	o := benchOptions()
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.CheckpointAblation(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Metric == "vsec" {
			b.ReportMetric(r.Value, "vsec-"+r.Variant)
		}
	}
}

// BenchmarkAblationPipeline is A8: the fused redistribution→merge
// pipeline vs the barrier path, run separately per variant so ns/op and
// allocs/op are directly comparable; vsec and blockIOs come from the
// simulator's accounting.
func BenchmarkAblationPipeline(b *testing.B) {
	v := experiments.PaperVector
	n := v.NearestValidSize(1 << 16)
	for _, variant := range []struct {
		name     string
		pipeline bool
	}{{"barrier", false}, {"pipelined", true}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			var vsec float64
			var io int64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
				if err != nil {
					b.Fatal(err)
				}
				cfg := extsort.Config{Perf: v, BlockKeys: 64, MemoryKeys: 16384,
					Tapes: 6, MessageKeys: 512, Pipeline: variant.pipeline}
				sum, err := extsort.DistributeInput(c, v, record.Uniform, n, 1, 64, "in")
				if err != nil {
					b.Fatal(err)
				}
				res, err := extsort.Sort(c, cfg, "in", "out")
				if err != nil {
					b.Fatal(err)
				}
				if err := extsort.VerifyOutput(c, "out", 64, sum); err != nil {
					b.Fatal(err)
				}
				vsec = res.Time
				io = 0
				for _, s := range res.NodeIO {
					io += s.Total()
				}
			}
			b.ReportMetric(vsec, "vsec")
			b.ReportMetric(float64(io), "blockIOs")
		})
	}
}

// BenchmarkAblationOverlap is A9: overlapped disk I/O (prefetch +
// write-behind) vs the synchronous path, run separately per variant so
// ns/op and allocs/op are directly comparable; vsec and blockIOs come
// from the simulator's accounting and blockIOs must match exactly
// across the two variants.
func BenchmarkAblationOverlap(b *testing.B) {
	v := experiments.PaperVector
	n := v.NearestValidSize(1 << 16)
	for _, variant := range []struct {
		name    string
		overlap bool
	}{{"synchronous", false}, {"overlapped", true}} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			var vsec float64
			var io int64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
				if err != nil {
					b.Fatal(err)
				}
				cfg := extsort.Config{Perf: v, BlockKeys: 64, MemoryKeys: 16384,
					Tapes: 6, MessageKeys: 512, Overlap: variant.overlap}
				sum, err := extsort.DistributeInput(c, v, record.Uniform, n, 1, 64, "in")
				if err != nil {
					b.Fatal(err)
				}
				res, err := extsort.Sort(c, cfg, "in", "out")
				if err != nil {
					b.Fatal(err)
				}
				if err := extsort.VerifyOutput(c, "out", 64, sum); err != nil {
					b.Fatal(err)
				}
				vsec = res.Time
				io = 0
				for _, s := range res.NodeIO {
					io += s.Total()
				}
			}
			b.ReportMetric(vsec, "vsec")
			b.ReportMetric(float64(io), "blockIOs")
		})
	}
}

// BenchmarkDistributionSweep is E10: external PSRS across the eight
// benchmark input distributions (the paper's input-invariance claim).
func BenchmarkDistributionSweep(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.DistributionSweep(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatal("incomplete sweep")
		}
	}
}
