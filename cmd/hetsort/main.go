// Command hetsort sorts a binary file of little-endian uint32 values
// out of core on a simulated heterogeneous cluster.
//
// Usage:
//
//	hetsort -input data.u32 -output sorted.u32 -perf 1,1,4,4 -workdir /tmp/hetsort
//	hetsort -gen 16777220 -dist uniform -input data.u32        # generate an input file
//
// The perf vector expresses relative node speeds; data is distributed
// proportionally and the algorithm guarantees no node handles more than
// twice its share.  With -workdir the node disks are real directories;
// without it they live in memory.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"hetsort"
	"hetsort/internal/record"
	"hetsort/internal/trace"
)

func main() {
	var (
		input    = flag.String("input", "", "input file of little-endian uint32 values")
		output   = flag.String("output", "", "output file (sorted)")
		perfStr  = flag.String("perf", "1,1,1,1", "comma-separated perf vector (relative node speeds)")
		workdir  = flag.String("workdir", "", "directory for node disks (empty = in-memory)")
		block    = flag.Int("block", 2048, "disk block size B in keys")
		memory   = flag.Int("memory", 1<<16, "per-node memory M in keys")
		tapes    = flag.Int("tapes", 15, "polyphase merge file count")
		msg      = flag.Int("msg", 8192, "redistribution message size in keys")
		disks    = flag.Int("disks", 1, "PDM disks per node D: models D member disks, block u of a file on disk u mod D (timing only)")
		diskAcc  = flag.String("disk-access", hetsort.DiskAccessStriped, "multi-disk scheduling model: striped, independent (timing only)")
		runForm  = flag.String("run-formation", hetsort.RunReplacementSelection, "initial run former: replacement-selection, load-sort, guidesort")
		network  = flag.String("net", hetsort.NetworkFastEthernet, "network model: fast-ethernet, myrinet, ideal")
		gen      = flag.Int64("gen", 0, "generate this many keys into -input instead of sorting")
		dist     = flag.String("dist", "uniform", "distribution for -gen (uniform, gaussian, zipf, sorted, reverse, nearly-sorted, bucket, staggered, heavy-dup, zipf-s2, staircase, sampler-killer)")
		seed     = flag.Int64("seed", 1, "seed for -gen")
		pivot    = flag.String("pivot", "", "pivot strategy: regular-sampling (default), random-pivots, quantile-sketch, histogram")
		histTol  = flag.Float64("hist-tol", 0, "histogram refinement tolerance as a fraction of the smallest share (default 0.05; -pivot histogram only)")
		topology = flag.String("topology", "flat", "redistribution topology: flat, tree, grid (tree/grid bound per-node fan-in at large p)")
		radix    = flag.Int("radix", 0, "tree fan-in r for -topology tree (default 4)")
		overlap  = flag.Bool("overlap", false, "overlap disk I/O with compute: reads charged as prefetched, writes as written behind (same I/O counts, lower virtual time)")
		verbose  = flag.Bool("v", false, "print the full per-step report")
		withGant = flag.Bool("trace", false, "print a virtual-time Gantt chart of the run")
		traceOut = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run (load in Perfetto); implies tracing")
		evtsOut  = flag.String("events-out", "", "write the raw event stream as JSONL; implies tracing")
		metsOut  = flag.String("metrics-out", "", "write per-node metrics and the virtual-time attribution as JSON")
		validate = flag.String("validate-trace", "", "validate a trace_event JSON file written by -trace-out and exit")
		ckptDir  = flag.String("checkpoint-dir", "", "directory for node disks with durable phase checkpoints (implies -workdir)")
		resume   = flag.Bool("resume", false, "resume an interrupted checkpointed run from -checkpoint-dir")
		crash    = flag.String("crash", "", "inject a crash for testing, as node:phase (e.g. 2:4)")
		jsonFlag = flag.Bool("json", false, "print a machine-readable JSON result object (errors included) to stdout")
		progFlag = flag.Bool("progress", false, "repaint a live per-node progress table on stderr while sorting, then print the straggler analysis")
	)
	flag.Parse()
	jsonMode = *jsonFlag

	if *validate != "" {
		data, err := os.ReadFile(*validate)
		if err != nil {
			fatal(err)
		}
		if err := trace.ValidateChromeTrace(data); err != nil {
			fatal(err)
		}
		fmt.Printf("%s: valid Chrome trace_event JSON\n", *validate)
		return
	}

	perfV, err := hetsort.ParsePerf(*perfStr)
	if err != nil {
		fatal(err)
	}

	if *gen > 0 {
		if *input == "" {
			fatal(fmt.Errorf("-gen requires -input"))
		}
		if err := generate(*input, *gen, *dist, *seed, len(perfV)); err != nil {
			fatal(err)
		}
		fmt.Printf("generated %d %s keys into %s\n", *gen, *dist, *input)
		return
	}

	if *resume {
		if *ckptDir == "" {
			fatal(fmt.Errorf("-resume requires -checkpoint-dir"))
		}
		if *output == "" {
			fmt.Fprintln(os.Stderr, "usage: hetsort -resume -checkpoint-dir DIR -output OUT [flags]; see -h")
			os.Exit(2)
		}
	} else if *input == "" || *output == "" {
		fmt.Fprintln(os.Stderr, "usage: hetsort -input IN -output OUT [flags]; see -h")
		os.Exit(2)
	}
	cfg := hetsort.Config{
		Perf:          perfV,
		BlockKeys:     *block,
		MemoryKeys:    *memory,
		Tapes:         *tapes,
		MessageKeys:   *msg,
		Disks:         *disks,
		DiskAccess:    *diskAcc,
		RunFormation:  *runForm,
		Network:       *network,
		WorkDir:       *workdir,
		Trace:         *withGant || *traceOut != "" || *evtsOut != "",
		Overlap:       *overlap,
		Topology:      *topology,
		Radix:         *radix,
		PivotStrategy: *pivot,
		HistTolerance: *histTol,
	}
	if *ckptDir != "" {
		cfg.WorkDir = *ckptDir
		cfg.Checkpoint.Enabled = true
	}
	if *crash != "" {
		var node, phase int
		if _, err := fmt.Sscanf(*crash, "%d:%d", &node, &phase); err != nil {
			fatal(fmt.Errorf("-crash wants node:phase, got %q", *crash))
		}
		cfg.Checkpoint.CrashNode = node
		cfg.Checkpoint.CrashPhase = phase
	}

	var rend *progressRenderer
	if *progFlag {
		tr := hetsort.NewProgressTracker()
		cfg.Progress = tr
		rend = startProgressRenderer(tr)
	}

	var rep *hetsort.Report
	if *resume {
		rep, err = hetsort.Resume(*output, cfg)
	} else {
		rep, err = hetsort.SortFile(*input, *output, cfg)
	}
	if rend != nil {
		rend.finish()
	}
	if err != nil {
		if hetsort.IsCrash(err) {
			if jsonMode {
				os.Stdout.Write(resultJSON(nil, err, *ckptDir))
			} else {
				fmt.Fprintf(os.Stderr, "hetsort: %v\nhetsort: checkpoints are intact; rerun with -resume -checkpoint-dir %s to continue\n", err, *ckptDir)
			}
			os.Exit(1)
		}
		fatal(err)
	}
	switch {
	case jsonMode:
		os.Stdout.Write(resultJSON(rep, nil, ""))
	case *verbose:
		fmt.Print(rep.String())
	default:
		fmt.Printf("sorted in %.3f virtual s; S(max)=%.4f; partitions=%v\n",
			rep.Time, rep.SublistExpansion, rep.PartitionSizes)
	}
	if *progFlag {
		if sr, serr := rep.Stragglers(); serr == nil {
			fmt.Fprint(os.Stderr, sr.String())
		}
	}
	if *withGant {
		fmt.Print(rep.Gantt)
	}
	if *traceOut != "" {
		if err := writeTrace(*traceOut, rep, trace.WriteChromeTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (load at ui.perfetto.dev)\n", *traceOut)
	}
	if *evtsOut != "" {
		if err := writeTrace(*evtsOut, rep, trace.WriteJSONL); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote event stream to %s\n", *evtsOut)
	}
	if *metsOut != "" {
		if err := writeMetrics(*metsOut, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metsOut)
	}
}

// writeTrace streams the report's raw event log through one of the
// trace exporters into path.
func writeTrace(path string, rep *hetsort.Report, export func(io.Writer, *trace.Log) error) error {
	if rep.TraceLog == nil {
		return fmt.Errorf("no trace recorded (internal error: tracing should be implied)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := export(w, rep.TraceLog); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the per-node registries and time attribution.
func writeMetrics(path string, rep *hetsort.Report) error {
	out := struct {
		Time          float64                 `json:"time"`
		NodeClocks    []float64               `json:"node_clocks"`
		NodeBreakdown []hetsort.TimeBreakdown `json:"node_breakdown"`
		NodeMetrics   []map[string]float64    `json:"node_metrics"`
	}{rep.Time, rep.NodeClocks, rep.NodeBreakdown, rep.NodeMetrics}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func generate(path string, n int64, distName string, seed int64, parts int) error {
	d, err := record.ParseDistribution(distName)
	if err != nil {
		return err
	}
	keys := d.Generate(int(n), seed, parts)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf [4]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint32(buf[:], k)
		if _, err := w.Write(buf[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonMode mirrors the -json flag for the error paths: with it set,
// failures print the same machine-readable error object the hetsortd
// API returns, to stdout, and the exit code is the only other signal.
var jsonMode bool

// cliResult is the -json output object.  On failure it carries the
// error string (the hetsortd API's {"error": ...} shape, plus the crash
// and resume fields a batch driver needs to orchestrate recovery).
type cliResult struct {
	OK         bool      `json:"ok"`
	Error      string    `json:"error,omitempty"`
	Crash      bool      `json:"crash,omitempty"`
	ResumeHint string    `json:"resume_hint,omitempty"`
	Time       float64   `json:"time,omitempty"`
	Expansion  float64   `json:"expansion,omitempty"`
	Partitions []int64   `json:"partitions,omitempty"`
	NodeClocks []float64 `json:"node_clocks,omitempty"`
}

// resultJSON renders the -json object for a finished (rep) or failed
// (err) run; ckptDir fills the resume hint for recoverable crashes.
func resultJSON(rep *hetsort.Report, err error, ckptDir string) []byte {
	var r cliResult
	if err != nil {
		r.Error = err.Error()
		if hetsort.IsCrash(err) {
			r.Crash = true
			if ckptDir != "" {
				r.ResumeHint = fmt.Sprintf("hetsort -resume -checkpoint-dir %s", ckptDir)
			}
		}
	} else {
		r.OK = true
		r.Time = rep.Time
		r.Expansion = rep.SublistExpansion
		r.Partitions = rep.PartitionSizes
		r.NodeClocks = rep.NodeClocks
	}
	out, merr := json.Marshal(&r)
	if merr != nil { // cliResult always marshals; belt and braces
		out = []byte(fmt.Sprintf(`{"ok":false,"error":%q}`, merr))
	}
	return append(out, '\n')
}

func fatal(err error) {
	if jsonMode {
		os.Stdout.Write(resultJSON(nil, err, ""))
	} else {
		fmt.Fprintln(os.Stderr, "hetsort:", err)
	}
	os.Exit(1)
}
