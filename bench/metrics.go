package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json.  Bound is the share of
// the parent's median by which an end-to-end metric may get worse; a
// per-layer metric has none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// The bounds are three times the widest spread measured between ten
// seeds, capped at the 25 % BENCHMARK.json allows (bench/README.md has
// the measurements), not the issue's: the reference sandbox's two cores
// run a fifth faster or slower from one minute to the next, CPU time
// included, and at times worse, so no host metric resolves less; the
// model's numbers, exact for a seed, move a little between seeds.
var endToEnd = []metricDef{
	{"sort_mbps", "MB/s", "higher", 0.25},
	{"cpu_ns_per_key", "ns/key", "lower", 0.25},
	{"alloc_bytes_per_key", "B/key", "lower", 0.25},
	{"mallocs_per_key", "1/key", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"vsec", "vsec", "lower", 0.01},
	{"block_ios", "blocks", "lower", 0.002},
	{"sublist_expansion", "ratio", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "calib.copy_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "calib.incore_sort_mbps", Unit: "MB/s", Better: "higher"},

	{Name: "record.generate.mbps", Unit: "MB/s", Better: "higher"},

	{Name: "diskio.write.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "diskio.write.alloc_bytes_per_key", Unit: "B/key", Better: "lower"},
	{Name: "diskio.write.roofline", Unit: "ratio", Better: "higher"},
	{Name: "diskio.read.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "diskio.read.alloc_bytes_per_key", Unit: "B/key", Better: "lower"},
	{Name: "diskio.read.roofline", Unit: "ratio", Better: "higher"},
	{Name: "diskio.readat.ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "diskio.pool.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "diskio.prefetch.hit_rate", Unit: "ratio", Better: "higher"},

	{Name: "polyphase.sort.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "polyphase.sort.alloc_bytes_per_key", Unit: "B/key", Better: "lower"},
	{Name: "polyphase.sort.mallocs_per_key", Unit: "1/key", Better: "lower"},
	{Name: "polyphase.sort.runs", Unit: "count", Better: "lower"},
	{Name: "polyphase.sort.phases", Unit: "count", Better: "lower"},
	{Name: "polyphase.sort.block_ios", Unit: "blocks", Better: "lower"},
	{Name: "polyphase.sort.roofline", Unit: "ratio", Better: "higher"},
	{Name: "polyphase.mergefiles.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "polyphase.mergefiles.mallocs_per_key", Unit: "1/key", Better: "lower"},
	{Name: "polyphase.mergefiles.block_ios", Unit: "blocks", Better: "lower"},
	{Name: "polyphase.mergefiles.roofline", Unit: "ratio", Better: "higher"},
	{Name: "polyphase.merge_kernel.ns_per_key", Unit: "ns/key", Better: "lower"},
	{Name: "polyphase.merge_kernel.mallocs_per_key", Unit: "1/key", Better: "lower"},
	{Name: "polyphase.merge.fastpath_rate", Unit: "ratio", Better: "higher"},
	{Name: "polyphase.merge.comparisons_per_key", Unit: "1/key", Better: "lower"},

	{Name: "cluster.exchange.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "cluster.exchange.mallocs_per_msg", Unit: "1/msg", Better: "lower"},
	{Name: "cluster.collective.us_per_round", Unit: "us", Better: "lower"},
	{Name: "cluster.net.sent_msgs", Unit: "count", Better: "lower"},
	{Name: "cluster.net.sent_keys", Unit: "count", Better: "lower"},
	{Name: "cluster.net.queue_hwm", Unit: "count", Better: "lower"},
	{Name: "cluster.links_created", Unit: "count", Better: "lower"},

	{Name: "extsort.sort.mbps", Unit: "MB/s", Better: "higher"},
	{Name: "extsort.sort.alloc_bytes_per_key", Unit: "B/key", Better: "lower"},
	{Name: "extsort.sort.mallocs_per_key", Unit: "1/key", Better: "lower"},
	{Name: "extsort.sort.roofline", Unit: "ratio", Better: "higher"},
	{Name: "extsort.step1.vsec", Unit: "vsec", Better: "lower"},
	{Name: "extsort.step2.vsec", Unit: "vsec", Better: "lower"},
	{Name: "extsort.step3.vsec", Unit: "vsec", Better: "lower"},
	{Name: "extsort.step4.vsec", Unit: "vsec", Better: "lower"},
	{Name: "extsort.step5.vsec", Unit: "vsec", Better: "lower"},
	{Name: "extsort.step1.block_ios", Unit: "blocks", Better: "lower"},
	{Name: "extsort.step2.block_ios", Unit: "blocks", Better: "lower"},
	{Name: "extsort.step3.block_ios", Unit: "blocks", Better: "lower"},
	{Name: "extsort.step4.block_ios", Unit: "blocks", Better: "lower"},
	{Name: "extsort.step5.block_ios", Unit: "blocks", Better: "lower"},
	{Name: "extsort.attr.compute_share", Unit: "ratio", Better: "higher"},
	{Name: "extsort.attr.disk_share", Unit: "ratio", Better: "lower"},
	{Name: "extsort.attr.network_share", Unit: "ratio", Better: "lower"},
	{Name: "extsort.attr.idle_share", Unit: "ratio", Better: "lower"},
	{Name: "extsort.attr.overlapped_share", Unit: "ratio", Better: "higher"},
	{Name: "extsort.pivot.rounds", Unit: "count", Better: "lower"},
	{Name: "extsort.pivot.sample_keys", Unit: "count", Better: "lower"},
	{Name: "extsort.redist.rounds", Unit: "count", Better: "lower"},
	{Name: "extsort.redist.fanin_streams", Unit: "count", Better: "lower"},
	{Name: "extsort.verify.mbps", Unit: "MB/s", Better: "higher"},

	{Name: "checkpoint.commit.vsec_mean", Unit: "vsec", Better: "lower"},

	{Name: "hetsort.sort.traced_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "hetsort.facade_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "hetsort.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "hetsort.host_over_vsec", Unit: "s/vsec", Better: "lower"},
	{Name: "hetsort.paper_vsec_error", Unit: "ratio", Better: "lower"},
}

// runSeconds is how long one run measures; it is the default of
// -seconds and the run_seconds of BENCHMARK.json.
const runSeconds = 24

// manifest is BENCHMARK.json, generated from the tables above by
// -manifest so the file and the program cannot drift apart.
func manifest() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	return m
}

// value is one reported metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult keeps exactly the metrics defs names, in their units; a
// metric the run did not produce is an error of the benchmark.
func newResult(defs []metricDef, got map[string]float64, attempted, failed int) (result, error) {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = value{v, d.Unit}
	}
	return r, nil
}

func (r result) writeLine(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// summary is a median with the extremes and the sample count beside it.
type summary struct {
	Median, Min, Max float64
	N                int
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// ratio is a/b, and 0 where the layer did no such work (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// worsening is by how much of a the value b is worse than a in the
// metric's direction (negative: b is better).
func (d metricDef) worsening(a, b float64) float64 {
	if d.Better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}
