// Command bench is the repository's one benchmark: four fixed
// workloads through the public facade (hetsort.Sort / hetsort.SortFile),
// host and model end-to-end metrics from an untraced pass, and per-layer
// metrics from a traced pass that replays each layer on its own.  See
// README.md in this directory and BENCHMARK.json at the repository root.
//
// The last line of standard output is the machine-readable result; the
// lines before it are for people.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"hetsort/internal/diskio"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	scale    string
	outDir   string // span files and scratch data; relative to the checkout's root
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: each of them in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed reps of a run may take")
	flag.IntVar(&o.trace, "trace", 0, "1: traced pass (per-layer metrics, span file); 0: untraced pass (end-to-end metrics)")
	flag.IntVar(&o.reps, "reps", 0, "timed reps per run (0: as many as fit in -seconds, at least 3)")
	flag.StringVar(&o.scale, "scale", "full", "full, or tiny (1/64 of n: a protocol smoke test, not performance)")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced pass twice and compare the two with the bounds")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.outDir = filepath.Join("bench", "out")

	var err error
	switch {
	case *printManifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(manifest())
	case *selfcheck:
		err = selfCheck(o)
	case o.workload == "":
		err = runAll(o)
	default:
		err = runOne(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("a rep failed or an output was wrong")

// runOne runs one workload in this process and prints its result line
// last.  The result is printed even when a rep failed; the error then
// makes the exit code non-zero.
func runOne(o options, stdout io.Writer) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	var div int64
	switch o.scale {
	case "full":
		div = 1
	case "tiny":
		div = 64
	default:
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	n := w.size(div)
	reg := w.regime(n)
	if div == 1 && !reg.OK {
		return fmt.Errorf("%s at n=%d is not reported: %v", w.name, n, reg)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.outDir, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "== %s  seed=%d  n=%d keys (%.1f MB)  p=%d  GOMAXPROCS=%d  scale=%s\n",
		w.name, o.seed, n, 4*float64(n)/1e6, len(w.perf), runtime.GOMAXPROCS(0), o.scale)
	fmt.Fprintf(stdout, "   %s\n   regime %v\n", w.why, reg)

	var res result
	if o.trace != 0 {
		res, err = runTraced(w, o, n, dir, stdout)
	} else {
		res, err = runUntraced(w, o, n, dir, stdout)
	}
	if err != nil {
		return err
	}
	if err := res.writeLine(stdout); err != nil {
		return err
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func runUntraced(w *workload, o options, n int64, dir string, stdout io.Writer) (result, error) {
	u, err := measure(w, o.seed, n, dir, o.seconds, o.reps)
	if err != nil {
		return result{}, err
	}
	for i := range u.samples {
		if s := &u.samples[i]; s.fail != "" {
			fmt.Fprintf(stdout, "   rep %d (0 is the warm-up) FAILED: %s\n", i, s.fail)
		}
	}
	first := &u.samples[0]
	fmt.Fprintf(stdout, "   output sha256 %s (equal on every rep that passed)\n", first.sha)
	sums := u.summaries()
	fmt.Fprintf(stdout, "   host metrics are this sandbox's; vsec, block_ios and sublist_expansion are the model's\n")
	fmt.Fprintf(stdout, "   %-22s %-7s %14s %14s %14s %4s %7s\n", "metric", "unit", "median", "min", "max", "n", "bound")
	got := map[string]float64{}
	for _, d := range endToEnd {
		s := sums[d.Name]
		got[d.Name] = s.Median
		fmt.Fprintf(stdout, "   %-22s %-7s %14.6g %14.6g %14.6g %4d %6.1f%%\n", d.Name, d.Unit, s.Median, s.Min, s.Max, s.N, 100*d.Bound)
	}
	fmt.Fprintf(stdout, "   (1 warm-up + %d timed reps: so few samples support no percentile above the median)\n", len(u.samples)-1)
	fmt.Fprintf(stdout, "   failed_share %d/%d\n", u.failed(), len(u.samples))
	if w.paperVsec > 0 && o.scale == "full" && first.fail == "" {
		fmt.Fprintf(stdout, "   the paper measured %.2f s where the model says vsec %.2f\n", w.paperVsec, first.vsec)
	}
	return newResult(endToEnd, got, len(u.samples), u.failed())
}

// runTraced is the pass the per-layer metrics come from: the set-up, one
// untraced reference rep, its traced twin, and the replay of each layer
// under it.  The spans are kept in memory and written when it ends.
func runTraced(w *workload, o options, n int64, dir string, stdout io.Writer) (result, error) {
	tr := &tracer{workload: w.name}
	m := map[string]float64{}
	var warm, ref, twin sample
	root := tr.run("workload", 0, func() error {
		in, s, err := setUp(w, o.seed, n, dir, tr)
		if err != nil {
			return err
		}
		warm = s
		m["record.generate.mbps"] = tr.find("record.generate").mbps()
		ref = in.rep("ref", nil)
		h0, m0 := diskio.PoolStats()
		twin = in.rep("twin", tr)
		h1, m1 := diskio.PoolStats()
		for _, s := range []*sample{&ref, &twin} {
			if s.fail == "" {
				s.fail = s.differs(&warm)
			}
		}
		if warm.fail != "" || ref.fail != "" || twin.fail != "" {
			return nil
		}
		m["diskio.pool.hit_rate"] = ratio(float64(h1-h0), float64(h1-h0+m1-m0))
		reportMetrics(m, twin.report)
		r, err := newReplay(in, tr, twin.report, m)
		if err != nil {
			return err
		}
		return r.run()
	})
	if root.Err != nil {
		return result{}, root.Err
	}
	reps := []*sample{&warm, &ref, &twin}
	failed := 0
	for _, s := range reps {
		if s.fail != "" {
			failed++
			fmt.Fprintf(stdout, "   rep FAILED: %s\n", s.fail)
		}
	}
	if failed > 0 {
		// No layer numbers describe a wrong sort; report only that.
		return result{Attempted: len(reps), Failed: failed, Metrics: map[string]value{}}, nil
	}
	es := m["extsort.sort.mbps"]
	m["hetsort.sort.traced_mbps"] = 4 * float64(n) / 1e6 / twin.seconds()
	m["hetsort.facade_overhead_share"] = 1 - ratio(4*float64(n)/1e6/es, twin.seconds())
	m["hetsort.trace_overhead_share"] = twin.seconds()/ref.seconds() - 1
	m["hetsort.host_over_vsec"] = twin.seconds() / twin.vsec
	m["hetsort.paper_vsec_error"] = 0
	if w.paperVsec > 0 {
		m["hetsort.paper_vsec_error"] = math.Abs(twin.vsec-w.paperVsec) / w.paperVsec
	}

	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, o.seed))
	if err := tr.writeChrome(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "   spans (host seconds, this sandbox's) written to %s\n", path)
	tr.printTree(stdout)
	fmt.Fprintf(stdout, "   roofline chain (MB/s): calib.copy %.0f -> diskio write %.1f / read %.1f -> polyphase.sort %.2f -> extsort.sort %.2f -> hetsort.sort %.2f\n",
		m["calib.copy_mbps"], m["diskio.write.mbps"], m["diskio.read.mbps"], m["polyphase.sort.mbps"], es, m["hetsort.sort.traced_mbps"])
	fmt.Fprintf(stdout, "   %-42s %-7s %16s\n", "per-layer metric", "unit", "value")
	for _, d := range perLayer {
		fmt.Fprintf(stdout, "   %-42s %-7s %16.6g\n", d.Name, d.Unit, m[d.Name])
	}
	return newResult(perLayer, m, len(reps), 0)
}

// child runs one workload in a process of its own, so that its peak
// RSS, collector state and page cache do not colour the next one's.
// Its output is passed through; its result line is returned.
func child(o options, workload string, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-reps", fmt.Sprint(o.reps), "-scale", o.scale)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s printed no result: %w", workload, errors.Join(runErr, err))
	}
	return res, runErr
}

// runAll runs every workload, each in its own child process.
func runAll(o options) error {
	var errs []error
	for _, w := range workloads {
		if _, err := child(o, w.name, o.trace); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.name, err))
		}
	}
	return errors.Join(errs...)
}

// selfCheck runs the untraced pass of every workload twice, back to
// back, and fails when the second disagrees with the first by more than
// a metric's bound in either direction: such a bound could not tell a
// regression from noise.
func selfCheck(o options) error {
	var errs []error
	for _, w := range workloads {
		a, err := child(o, w.name, 0)
		if err != nil {
			return err
		}
		b, err := child(o, w.name, 0)
		if err != nil {
			return err
		}
		fmt.Printf("== selfcheck %s\n   %-22s %14s %14s %8s %7s\n", w.name, "metric", "first", "second", "gap", "bound")
		for _, d := range endToEnd {
			x, y := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			gap := math.Abs(d.worsening(x, y))
			verdict := ""
			if gap > d.Bound {
				verdict = "  DISAGREE"
				errs = append(errs, fmt.Errorf("%s %s: two runs of the same code differ by %.2f%%, bound %.1f%%", w.name, d.Name, 100*gap, 100*d.Bound))
			}
			fmt.Printf("   %-22s %14.6g %14.6g %7.2f%% %6.1f%%%s\n", d.Name, x, y, 100*gap, 100*d.Bound, verdict)
		}
	}
	return errors.Join(errs...)
}
