// Command benchtab regenerates every table, figure and in-text result
// of the paper's evaluation and prints the measured (virtual-time)
// values side by side with the paper's numbers.
//
// Usage:
//
//	benchtab                     # whole suite at the default 1/64 scale
//	benchtab -shift 0 -trials 30 # the paper's full input sizes and repetitions (slow)
//	benchtab -experiment table3  # a single experiment
//	benchtab -experiment pdm -cpuprofile cpu.pprof
//
// Experiments: table1, table2, calibration, packets, table3, speedups,
// figure1, distributions, ablations, checkpoint, overlap, pdm,
// attribution, scaling, histsort, regress, all.
//
// Every measured experiment prints rows of one shape (experiment,
// labels, metrics, output SHA-256).  The baselined ones — overlap
// (A9), pdm (A10), histsort and scaling — also write
// their rows to BENCH_<name>.json, exactly the files the regress gate
// reads; each is self-checking (byte-identical output across its
// variants, and the inequalities its doc comment in
// internal/experiments states).  histsort and scaling are not part of
// "all" (sorts at p up to 256 and 1024); -maxp caps both.
//
// The regress experiment (not part of "all") is the perf-regression
// gate: it re-runs every baselined experiment at the scale its
// committed BENCH_<name>.json records (capped at -maxp), matches rows
// by (experiment, labels), and diffs vsec within -tolerance percent,
// every other metric exact-or-lower and the output SHA-256 equal.  A
// baseline row the re-run no longer produces fails the gate.  It
// writes BENCH_regress.json and exits non-zero if anything regressed.
//
// -cpuprofile/-memprofile write pprof profiles of the selected
// experiments, and every run ends with a host-side cost table (wall
// clock, allocations, allocs per sorted key, and the process's peak
// resident set so far — getrusage's maxrss, so a one-experiment run
// reads that experiment's peak).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"hetsort/internal/experiments"
	"hetsort/internal/stats"
)

func main() {
	var (
		shift   = flag.Uint("shift", 6, "right-shift applied to the paper's input sizes (0 = full scale)")
		trials  = flag.Int("trials", 5, "repetitions per measurement (paper: 30)")
		onDisk  = flag.Bool("ondisk", false, "use real temporary directories for node disks")
		tmp     = flag.String("tmpdir", "", "root directory for -ondisk")
		which   = flag.String("experiment", "all", "experiment to run: table1, table2, calibration, packets, table3, speedups, figure1, distributions, ablations, checkpoint, overlap, pdm, attribution, scaling, histsort, regress, all")
		maxP    = flag.Int("maxp", 1024, "largest cluster size the scaling, histsort and regress experiments sweep to")
		tolPct  = flag.Float64("tolerance", 5, "regress gate: allowed vsec increase in percent before failing")
		benchD  = flag.String("bench-dir", ".", "regress gate: directory holding the committed BENCH_*.json baselines")
		seed    = flag.Int64("seed", 1, "base input seed")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	o := experiments.Options{
		SizeShift: *shift,
		Trials:    *trials,
		OnDisk:    *onDisk,
		TempDir:   *tmp,
		Seed:      *seed,
		MaxP:      *maxP,
	}
	fmt.Printf("hetsort benchtab: size shift 2^-%d, %d trials per point\n\n", *shift, *trials)

	cost := &stats.Table{
		Title:   "Host cost per experiment",
		Headers: []string{"Experiment", "Wall", "Allocs", "Allocs/op", "Peak RSS"},
	}
	run := func(name string, f func() error) {
		if *which != "all" && *which != name {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		opKeys := float64(int64(1<<22) >> *shift) // the suite's reference sort size
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		cost.AddRow(name, wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", allocs), fmt.Sprintf("%.2f", float64(allocs)/opKeys),
			fmt.Sprintf("%.0f MB", float64(ru.Maxrss)*1024/1e6)) // maxrss is in KiB on Linux
		fmt.Println()
	}

	run("table1", func() error {
		fmt.Print(experiments.Table1String(experiments.Table1(o)))
		return nil
	})
	run("table2", func() error {
		rows, err := experiments.Table2(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.Table2String(rows))
		return nil
	})
	run("calibration", func() error {
		cal, err := experiments.Calibrate(o)
		if err != nil {
			return err
		}
		fmt.Printf("Calibration (paper section 5 protocol):\n  per-node times: %.3f s\n  derived perf vector: %v (paper: [1 1 4 4])\n",
			cal.Times, cal.Perf)
		return nil
	})
	run("packets", func() error {
		rows, err := experiments.RunPacketSweep(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.PacketSweepString(rows))
		return nil
	})
	run("table3", func() error {
		rows, err := experiments.Table3(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.Table3String(rows))
		return nil
	})
	run("speedups", func() error {
		s, err := experiments.ComputeSpeedups(o)
		if err != nil {
			return err
		}
		fmt.Print(s.String())
		return nil
	})
	run("figure1", func() error {
		rows, err := experiments.Figure1PDM(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.Figure1String(rows))
		return nil
	})
	run("distributions", func() error {
		rows, err := experiments.DistributionSweep(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.DistributionSweepString(rows))
		return nil
	})
	run("ablations", func() error {
		rows, err := experiments.Ablations(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RowsString("Ablations A1-A6 (see DESIGN.md)", rows))
		return nil
	})
	run("checkpoint", func() error {
		rows, err := experiments.CheckpointAblation(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.RowsString("A7: the cost of crash tolerance", rows))
		return nil
	})
	for _, e := range experiments.Baselined {
		// The wide sweeps simulate up to a thousand nodes and dominate the
		// suite's wall clock: run them explicitly, capping with -maxp.
		if *which == "all" && (e.Name == "scaling" || e.Name == "histsort") {
			continue
		}
		run(e.Name, func() error {
			rows, err := e.Run(o)
			if err != nil {
				return err
			}
			fmt.Print(experiments.RowsString(e.Title, rows))
			path := experiments.BaselinePath(".", e.Name)
			if err := experiments.WriteJSON(path, experiments.Baseline{SizeShift: *shift, MaxP: *maxP, Rows: rows}); err != nil {
				return err
			}
			fmt.Println("wrote", path)
			return nil
		})
	}
	run("attribution", func() error {
		rep, err := experiments.RunAttribution(o)
		if err != nil {
			return err
		}
		fmt.Print(experiments.AttributionString(rep))
		return nil
	})
	// Not part of "all": the gate re-runs the baselined experiments at
	// their committed scales, so it is a CI step, not a table.
	if *which == "regress" {
		run("regress", func() error {
			rep, err := experiments.RegressionGate(o, *benchD, *tolPct)
			if err != nil {
				return err
			}
			fmt.Print(rep.String())
			if err := experiments.WriteJSON("BENCH_regress.json", rep); err != nil {
				return err
			}
			fmt.Println("wrote BENCH_regress.json")
			if n := rep.Regressions(); n > 0 {
				return fmt.Errorf("%d finding(s) breached the gate (vsec tolerance %.1f%%)", n, *tolPct)
			}
			return nil
		})
	}

	fmt.Print(cost.String())

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
