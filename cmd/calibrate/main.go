// Command calibrate runs the paper's perf-vector calibration protocol:
// every node of the (simulated) cluster externally sorts the same
// number of keys, and the ratio of the slowest time to each node's time
// becomes its perf entry.
//
// Usage:
//
//	calibrate -loads 4,4,1,1 -keys 262144
//
// -loads describes the machine being calibrated (the slowdown factor of
// each node); the output is the perf vector a user would then pass to
// hetsort.  With the paper's loaded cluster (-loads 4,4,1,1) the result
// is {1,1,4,4}.
package main

import (
	"flag"
	"fmt"
	"os"

	"hetsort"
)

func main() {
	var (
		loadsStr  = flag.String("loads", "4,4,1,1", "comma-separated node slowdown factors (>= 1)")
		keys      = flag.Int64("keys", 262144, "keys each node sorts during calibration (paper: N/P = 2^22)")
		block     = flag.Int("block", 2048, "disk block size in keys")
		memory    = flag.Int("memory", 0, "per-node memory in keys (0 = the library default, 65536)")
		tapes     = flag.Int("tapes", 15, "polyphase file count")
		showGantt = flag.Bool("trace", false, "print a virtual-time Gantt chart of the calibration sorts")
	)
	flag.Parse()

	loads, err := hetsort.ParseLoads(*loadsStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	cfg := hetsort.Config{
		Nodes:      len(loads),
		Loads:      loads,
		BlockKeys:  *block,
		MemoryKeys: *memory,
		Tapes:      *tapes,
		Trace:      *showGantt,
	}
	cal, err := hetsort.CalibrateReport(cfg, *keys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
	fmt.Printf("per-node sequential external sort of %d keys:\n", *keys)
	for i, t := range cal.Times {
		fmt.Printf("  node %d (load %.1fx): %10.3f virtual s\n", i, loads[i], t)
	}
	fmt.Printf("derived perf vector: %v\n", cal.Perf)
	if *showGantt {
		fmt.Print(cal.Gantt)
	}
}
