package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// set-up time and span timestamps count from it.
var processStart = time.Now()

// cost is what one call cost the host process, from counts read at its
// two ends.
type cost struct {
	Start, End time.Duration // since processStart
	AllocBytes uint64
	Mallocs    uint64
	CPU        time.Duration // user + system
	Err        error
}

func (c *cost) seconds() float64 { return (c.End - c.Start).Seconds() }

// timed runs fn and returns its cost.  The collection that runs first
// keeps earlier garbage out of the call's time; it and the counter reads
// are outside the timed region.
func timed(fn func() error) cost {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	c := cost{Start: time.Since(processStart)}
	c.Err = fn()
	c.End = time.Since(processStart)
	c.CPU = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	c.AllocBytes, c.Mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS asks the kernel to start the process's peak-RSS count
// afresh (Linux: "5" to clear_refs resets VmHWM), so that each rep's peak
// can be read on its own.  Where the kernel refuses, the peaks read are
// the high-water marks since process start instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the resident-set high-water mark since the last reset.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			var kb float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb * 1024 / 1e6
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // KiB on Linux
}

// span is one timed call into a layer, with the counts taken at the
// same boundaries.  Parent is an index into the tracer's spans, -1 for
// the root.
type span struct {
	Name   string
	Parent int
	Keys   int64 // keys the call moved (0: not a data path)
	Blocks int64 // PDM block transfers the call charged
	cost
}

// mbps is the span's throughput over 4-byte keys.
func (s *span) mbps() float64 { return ratio(4*float64(s.Keys)/1e6, s.seconds()) }

func (s *span) perKey(x float64) float64 { return ratio(x, float64(s.Keys)) }

// tracer keeps the spans of one workload in memory until the run ends.
type tracer struct {
	workload string
	spans    []*span
	open     []int
}

// run times fn, which moves keys keys, as a child of the innermost open
// span.  The collection before it is charged to the parent as self time.
func (t *tracer) run(name string, keys int64, fn func() error) *span {
	sp := &span{Name: name, Parent: -1, Keys: keys}
	if len(t.open) > 0 {
		sp.Parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, sp)
	sp.cost = timed(fn)
	t.open = t.open[:len(t.open)-1]
	return sp
}

// find returns the first span of that name.
func (t *tracer) find(name string) *span {
	for _, s := range t.spans {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// selfSeconds is a span's time minus the part its children cover.
func (t *tracer) selfSeconds(id int) float64 {
	self := t.spans[id].seconds()
	for _, s := range t.spans {
		if s.Parent == id {
			self -= s.seconds()
		}
	}
	return self
}

func (t *tracer) depth(id int) int {
	d := 0
	for p := t.spans[id].Parent; p >= 0; p = t.spans[p].Parent {
		d++
	}
	return d
}

// printTree shows each span's wall and self time, so the traced twin of
// the timed call can be read beside the replayed parts.
func (t *tracer) printTree(w io.Writer) {
	fmt.Fprintf(w, "  %-34s %10s %10s %10s %12s\n", "span", "wall s", "self s", "MB/s", "mallocs")
	for i, s := range t.spans {
		name := fmt.Sprintf("%*s%s", 2*t.depth(i), "", s.Name)
		mbps := ""
		if s.Keys > 0 {
			mbps = fmt.Sprintf("%.2f", s.mbps())
		}
		fmt.Fprintf(w, "  %-34s %10.4f %10.4f %10s %12d\n", name, s.seconds(), t.selfSeconds(i), mbps, s.Mallocs)
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// events on one track; load in ui.perfetto.dev or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = t.spans[s.Parent].Name
		}
		events = append(events, event{
			Name: s.Name, Cat: "host", Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"workload": t.workload, "parent": parent,
				"self_s": t.selfSeconds(i), "keys": s.Keys, "bytes": 4 * s.Keys, "blocks": s.Blocks,
				"alloc_bytes": s.AllocBytes, "mallocs": s.Mallocs, "cpu_s": s.CPU.Seconds(),
			},
		})
	}
	b, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
