package main

import (
	"fmt"

	"hetsort"
	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
)

// workload is one fixed input regime.  facade is what a caller of the
// library passes; ext is the same setting as extsort sees it, used by
// the traced replay, which calls the layers below the facade directly.
// The traced run fails when the two disagree on vsec or block I/Os.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json
	perf []int
	dist record.Distribution
	// keys is the size asked for at full scale; the size sorted is the
	// next one the perf vector divides (the paper's Equation 2).
	keys int64
	// dirFS runs hetsort.SortFile with WorkDir on a real directory
	// instead of hetsort.Sort on in-memory node disks.
	dirFS  bool
	facade hetsort.Config
	ext    extsort.Config
	// paperVsec is the paper's measured seconds for this row (0: none).
	paperVsec float64
}

func alternating(p, slow, fast int) []int {
	v := make([]int, p)
	for i := range v {
		v[i] = slow
		if i%2 == 1 {
			v[i] = fast
		}
	}
	return v
}

var paperCluster = []int{1, 1, 4, 4}

// workloads are the four regimes of bench/README.md.  Sizes are fixed:
// a run that is too slow lowers the rep count, never n.
var workloads = []workload{
	{
		name: "het4-mem",
		why:  "Default path of every test and example: {1,1,4,4}, uniform, 2^22 keys on in-memory node disks; diskio MemFS append does most of the work.",
		perf: paperCluster, dist: record.Uniform, keys: 1 << 22,
		facade: hetsort.Config{BlockKeys: 2048, MemoryKeys: 65536, Tapes: 15, MessageKeys: 8192},
		ext:    extsort.Config{BlockKeys: 2048, MemoryKeys: 65536, Tapes: 15, MessageKeys: 8192},
	},
	{
		name: "het4-dir",
		why:  "Paper Table 3 heterogeneous row: 2^24 keys through SortFile on directory-backed node disks; out of core, so polyphase and the block codec do the work.",
		perf: paperCluster, dist: record.Uniform, keys: 1 << 24, dirFS: true,
		facade:    hetsort.Config{BlockKeys: 2048, MemoryKeys: 65536, Tapes: 15, MessageKeys: 8192},
		ext:       extsort.Config{BlockKeys: 2048, MemoryKeys: 65536, Tapes: 15, MessageKeys: 8192},
		paperVsec: 155.41,
	},
	{
		name: "wide64-tree",
		why:  "p=64 alternating perf 1,4 with tree radix 4, pipeline and overlap: small per-node sorts, so cluster links, tree collectives and fused redistribution dominate.",
		perf: alternating(64, 1, 4), dist: record.Uniform, keys: 1 << 22,
		facade: hetsort.Config{BlockKeys: 128, MemoryKeys: 4096, Tapes: 8, MessageKeys: 8192,
			RunFormation: hetsort.RunLoadSort, Topology: hetsort.TopologyTree, Radix: 4,
			Pipeline: true, Overlap: true},
		ext: extsort.Config{BlockKeys: 128, MemoryKeys: 4096, Tapes: 8, MessageKeys: 8192,
			RunFormation: polyphase.LoadSort, Topology: extsort.TopologyTree, Radix: 4,
			Pipeline: true, Overlap: true},
	},
	{
		name: "skew4-hist",
		why:  "Duplicate-heavy zipf-s2 with 4 tapes, Guidesort, histogram pivots, pipeline and checkpoints: many merge phases and the only S(max) far from 1.",
		perf: paperCluster, dist: record.ZipfS2, keys: 1 << 21,
		facade: hetsort.Config{BlockKeys: 1024, MemoryKeys: 16384, Tapes: 4, MessageKeys: 2048,
			RunFormation: hetsort.RunGuidesort, PivotStrategy: hetsort.PivotHistogram,
			Pipeline: true, Checkpoint: hetsort.CheckpointConfig{Enabled: true}},
		ext: extsort.Config{BlockKeys: 1024, MemoryKeys: 16384, Tapes: 4, MessageKeys: 2048,
			RunFormation: polyphase.Guidesort, Strategy: extsort.Histogram,
			Pipeline: true, Checkpoint: true},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) vector() perf.Vector { return perf.Vector(w.perf) }

// size is the number of keys sorted when the full size is divided by div.
func (w *workload) size(div int64) int64 {
	return w.vector().NearestValidSize(w.keys / div)
}

// facadeConfig is the Config handed to hetsort.Sort / SortFile.
func (w *workload) facadeConfig(workDir string) hetsort.Config {
	c := w.facade
	c.Perf = w.perf
	c.WorkDir = workDir
	return c
}

// extConfig is the same setting for a direct extsort.Sort call.
func (w *workload) extConfig(sum record.Checksum) extsort.Config {
	c := w.ext
	c.Perf = w.vector()
	c.InputSum = sum
	return c
}

// regime is ROADMAP item 2's predicate: the out-of-core regime the
// paper is about.  Outside it a run is a protocol smoke test and its
// numbers are not performance.
type regime struct {
	PortionOverM  float64 // min l_i / M, must be >= 4
	MOverTB       float64 // M / (T*B), must be >= 2
	SegmentOverB  float64 // min l_i / p / B, must be >= 1
	SamplesOverN8 float64 // regular samples / (n/8), must be <= 1
	OK            bool
}

func (w *workload) regime(n int64) regime {
	v := w.vector()
	p := int64(len(v))
	shares := v.Shares(n)
	lmin := shares[0]
	for _, s := range shares {
		lmin = min(lmin, s)
	}
	e := w.ext
	r := regime{
		PortionOverM:  float64(lmin) / float64(e.MemoryKeys),
		MOverTB:       float64(e.MemoryKeys) / float64(e.Tapes*e.BlockKeys),
		SegmentOverB:  float64(lmin) / float64(p) / float64(e.BlockKeys),
		SamplesOverN8: float64(v.Sum()*p) / (float64(n) / 8),
	}
	r.OK = r.PortionOverM >= 4 && r.MOverTB >= 2 && r.SegmentOverB >= 1 && r.SamplesOverN8 <= 1
	return r
}

func (r regime) String() string {
	verdict := "in regime"
	if !r.OK {
		verdict = "OUT OF REGIME (protocol smoke, not performance)"
	}
	return fmt.Sprintf("%s: min l_i/M=%.2f (>=4), M/(T*B)=%.2f (>=2), min l_i/p/B=%.2f (>=1), samples/(n/8)=%.4f (<=1)",
		verdict, r.PortionOverM, r.MOverTB, r.SegmentOverB, r.SamplesOverN8)
}
