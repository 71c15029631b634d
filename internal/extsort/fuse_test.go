package extsort

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
)

// fuseCase is a configuration whose verdict stops step 1 one merge short
// on every node: 64-key blocks make a probe cost ≈ 140 blocks, so each
// node needs tens of thousands of keys for the probes to price below the
// pass, and three tapes bound the runs left at two.
type fuseCase struct {
	name  string
	v     perf.Vector
	n     int64
	dist  record.Distribution
	strat Strategy
	topo  Topology
	disks int
	mem   int
	msg   int // MessageKeys (default 1024)
	runs  int // the runs each node's step 1 leaves
}

func (fc fuseCase) config() Config {
	rf := polyphase.LoadSort
	if fc.runs == 1 { // a sorted portion is one replacement-selection run
		rf = polyphase.ReplacementSelection
	}
	msg := fc.msg
	if msg == 0 {
		msg = 1024
	}
	return Config{Perf: fc.v, BlockKeys: 64, MemoryKeys: fc.mem, Tapes: 3, MessageKeys: msg,
		RunFormation: rf, Strategy: fc.strat, Topology: fc.topo, Radix: 4, Seed: 7}
}

var fuseCases = []fuseCase{
	{name: "flat", v: perf.Vector{1, 3}, n: 140000, dist: record.Uniform, mem: 24000, runs: 2},
	{name: "flat-random", v: perf.Vector{1, 3}, n: 140000, dist: record.Uniform, strat: RandomPivots, mem: 24000, runs: 2},
	{name: "tree-r4", v: perf.Homogeneous(5), n: 600000, dist: record.Uniform, topo: TopologyTree, mem: 64000, runs: 2},
	{name: "d2", v: perf.Vector{1, 1}, n: 64000, dist: record.Uniform, disks: 2, mem: 20000, runs: 2},
	{name: "non-eq2", v: perf.Vector{1, 3}, n: 140003, dist: record.Gaussian, mem: 24000, runs: 2},
	{name: "ties", v: perf.Vector{1, 3}, n: 140000, dist: record.ZipfS2, mem: 24000, runs: 2},
	{name: "one-run", v: perf.Vector{1, 1}, n: 64000, dist: record.Sorted, mem: 24000, runs: 1},
}

// run sorts the case's input on a fresh cluster and returns the result,
// the output and the cluster; ref selects the unfused reference, whose
// memory holds every portion in one run, so the verdict refuses.
func (fc fuseCase) run(t *testing.T, ref bool) (*Report, []record.Key, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Slowdowns: fc.v.Slowdowns(), BlockKeys: 64, DisksPerNode: fc.disks})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fc.config()
	if ref {
		cfg.MemoryKeys = int(fc.n)
	}
	sum, err := DistributeInput(c, fc.v, fc.dist, fc.n, 3, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sort(c, cfg, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.P(); i++ {
		li := fc.v.Shares(fc.n)[i]
		runs := c.Node(i).Metrics().Gauge("step1.runs").Value()
		if fused := cfg.fuseRuns(li, i); fused == ref || !ref && runs != float64(fc.runs) {
			t.Fatalf("node %d: verdict %v with %v runs left (reference run: %v)", i, fused, runs, ref)
		}
	}
	return res, collectOutput(t, c, cfg.BlockKeys), c
}

// memoryPivots picks the one-shot strategies' pivots from each portion
// sorted in memory: the keys at the sampler's positions, gathered, sorted
// and read at the strategy's ranks.
func memoryPivots(t *testing.T, fc fuseCase, c *cluster.Cluster) ([]record.Key, int64) {
	t.Helper()
	keys := fc.dist.Generate(int(fc.n), 3, c.P())
	var cands []record.Key
	var off int64
	for i, li := range fc.v.Shares(fc.n) {
		portion := slices.Clone(keys[off : off+li])
		off += li
		slices.Sort(portion)
		w := &worker{n: c.Node(i), cfg: fc.config()}
		for _, a := range w.newIndex(li, false).at {
			cands = append(cands, portion[a])
		}
	}
	rule := sampling.RegularPivotRanks
	if fc.strat == RandomPivots {
		rule = sampling.WeightedPivotRanks
	}
	at, err := rule(len(cands), fc.v)
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(cands)
	pivots := make([]record.Key, len(at))
	for j, i := range at {
		pivots[j] = cands[i]
	}
	return pivots, int64(len(cands))
}

// TestFusedRunsMatchReference: a run whose step 1 stops one merge short
// selects over its runs the samples the sorted file would have held, so
// its pivots, sample count, partitions and output equal the unfused
// reference's and the pivots picked from the portions sorted in memory —
// flat and on a radix-4 tree, at D = 2, on a size Equation 2 does not
// divide, on a tie-heavy input whose cuts fall inside runs of equal keys
// (their copies go to the runs in order), and where step 1 forms one run,
// left on its tape.
func TestFusedRunsMatchReference(t *testing.T) {
	for _, fc := range fuseCases {
		t.Run(fc.name, func(t *testing.T) {
			res, out, c := fc.run(t, false)
			ref, refOut, _ := fc.run(t, true)
			if !slices.Equal(res.Pivots, ref.Pivots) || res.PivotSampleKeys != ref.PivotSampleKeys {
				t.Fatalf("fused pivots %v (%d samples), reference %v (%d)", res.Pivots, res.PivotSampleKeys, ref.Pivots, ref.PivotSampleKeys)
			}
			if !slices.Equal(res.PartitionSizes, ref.PartitionSizes) || !slices.Equal(out, refOut) {
				t.Fatalf("fused partitions %v, reference %v (outputs equal: %v)", res.PartitionSizes, ref.PartitionSizes, slices.Equal(out, refOut))
			}
			pivots, samples := memoryPivots(t, fc, c)
			if !slices.Equal(res.Pivots, pivots) || res.PivotSampleKeys != samples {
				t.Fatalf("fused pivots %v (%d samples), from memory %v (%d)", res.Pivots, res.PivotSampleKeys, pivots, samples)
			}
			if fc.name == "ties" && res.PivotRounds < 2 {
				t.Fatal("the tie-heavy case settled no tie")
			}
		})
	}
}

// TestFusedRunsFallBack: where step 1 stops one merge short but the
// final round's messages do not fit memory, step 5 merges the own runs
// as one leaf beside the receive file.  Its fan-in is p = 2 = T−1, so it
// makes one pass — every block read and written once, at most a partial
// block per section over — where R + p − 1 = 3 leaves would take two;
// and its output equals the unfused reference's.
func TestFusedRunsFallBack(t *testing.T) {
	fc := fuseCases[0] // flat: two runs a node, three tapes
	fc.msg = fc.mem
	if fc.config().fusedFits(1, fc.runs) {
		t.Fatal("the final round fuses")
	}
	res, out, _ := fc.run(t, false)
	_, refOut, _ := fc.run(t, true)
	if !slices.Equal(out, refOut) {
		t.Fatal("the fallback's output differs from the unfused reference's")
	}
	for i, q := range res.PartitionSizes {
		pass := 2*((q+63)/64) + int64(fc.runs+len(fc.v)-1)
		if got := res.StepIO[4][i].Total(); got == 0 || got > pass {
			t.Errorf("node %d: step 5 moved %d blocks of %d keys, one pass is at most %d", i, got, q, pass)
		}
	}
}

// TestFusedReceiveTreeHasPLeaves pins step 4's compute on the flat
// fused case.  Its receive merge takes the own runs as one leaf, merged
// on a tree of their own, beside the one stream; the own runs as R leaves
// of the receive tree (R + p − 1 = 3) charged 0.066002880 and 0.083227200
// vsec.
func TestFusedReceiveTreeHasPLeaves(t *testing.T) {
	res, _, _ := fuseCases[0].run(t, false)
	for i, want := range []float64{0.062609760, 0.079134400} {
		if got := res.StepBreakdown[3][i].Compute; math.Abs(got-want) > 1e-9 {
			t.Errorf("node %d: step 4 charged %.9f vsec of compute, want %.9f", i, got, want)
		}
	}
}

// TestFusedCrashResume kills a node at every step boundary and every
// commit of a run whose step 1 stops one merge short: the phase-1 to 4
// manifests list the runs, a resumed node rebuilds their fences with a
// scan and selects the samples again, and the output, pivots and
// partitions equal the uninterrupted run's.  The final round fuses, so
// the phase-4 manifest lists the output and no receive file is written.
func TestFusedCrashResume(t *testing.T) {
	fc := fuseCases[5] // ties: the cuts apportion copies over the runs
	cfg := fc.config()
	cfg.Checkpoint = true
	if !cfg.fusedFits(1, 2) {
		t.Fatal("the final round does not fuse")
	}
	run := func(t *testing.T, crashNode int, point string) (*Report, []record.Key, *cluster.Cluster) {
		c, err := cluster.New(cluster.Config{Slowdowns: fc.v.Slowdowns(), BlockKeys: 64})
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfg
		if cfg.InputSum, err = DistributeInput(c, fc.v, fc.dist, fc.n, 3, cfg.BlockKeys, "input"); err != nil {
			t.Fatal(err)
		}
		if point != "" {
			if err := c.ScheduleCrash(crashNode, -1, point); err != nil {
				t.Fatal(err)
			}
		}
		res, err := Sort(c, cfg, "input", "output")
		if point != "" {
			if !cluster.IsCrash(err) {
				t.Fatalf("crash at %q did not surface: %v", point, err)
			}
			res, _, err = Resume(c, cfg, "input", "output")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOutput(c, "output", cfg.BlockKeys, cfg.InputSum); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.P(); i++ {
			names, err := c.Node(i).FS().Names()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if name != "input" && name != "output" && name != "hetsort.ckpt" {
					t.Fatalf("node %d kept %s", i, name)
				}
			}
		}
		return res, collectOutput(t, c, cfg.BlockKeys), c
	}
	ref, want, _ := run(t, 0, "")
	points := []string{"committed:start"}
	for _, s := range StepNames {
		points = append(points, s, "committed:"+s)
	}
	for pi, point := range points {
		t.Run(point, func(t *testing.T) {
			res, out, _ := run(t, pi%2, point)
			if !slices.Equal(out, want) || !slices.Equal(res.Pivots, ref.Pivots) || !slices.Equal(res.PartitionSizes, ref.PartitionSizes) {
				t.Fatalf("resumed run differs: partitions %v, uninterrupted %v", res.PartitionSizes, ref.PartitionSizes)
			}
		})
	}
}

// TestFuseVerdict: the het4-dir shape (2^24 keys on {1,1,4,4}, the
// paper's B, M and T) and the het4-mem shape (2^22, where R + 1 probes a
// sample price at 2.63 vsec against the pass's 3.02 on a fast node) stop
// step 1 one merge short on every node; the wide64-tree shape (128-key
// blocks make a probe ≈ 70 blocks) does not, nor does any histogram
// run; and every node of a configuration reaches the same verdict from
// its own share alone.
func TestFuseVerdict(t *testing.T) {
	het := perf.Vector{1, 1, 4, 4}
	wide := make(perf.Vector, 64)
	for i := range wide {
		wide[i] = 1 + 3*(i%2)
	}
	paper := Config{Perf: het, BlockKeys: 2048, MemoryKeys: 65536, Tapes: 15, MessageKeys: 8192}
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int64
		want bool
	}{
		{"het4-dir", paper, 1 << 24, true},
		{"het4-dir/random", func() Config { c := paper; c.Strategy = RandomPivots; return c }(), 1 << 24, true},
		{"het4-dir/histogram", func() Config { c := paper; c.Strategy = Histogram; return c }(), 1 << 24, false},
		{"het4-mem", paper, 1 << 22, true},
		{"wide64-tree", Config{Perf: wide, BlockKeys: 128, MemoryKeys: 4096, Tapes: 8, MessageKeys: 8192,
			Topology: TopologyTree, Radix: 4}, 1 << 22, false},
		{"skew4-hist", Config{Perf: het, BlockKeys: 1024, MemoryKeys: 16384, Tapes: 4, MessageKeys: 2048,
			Strategy: Histogram}, 1 << 21, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shares := tc.cfg.Perf.Shares(tc.cfg.Perf.NearestValidSize(tc.n))
			for i, li := range shares {
				if got := tc.cfg.fuseRuns(li, i); got != tc.want {
					t.Fatalf("node %d (l_i = %d): verdict %v, want %v", i, li, got, tc.want)
				}
			}
		})
	}
	for _, fc := range fuseCases {
		cfg := fc.config()
		for i, li := range fc.v.Shares(fc.n) {
			if !cfg.fuseRuns(li, i) {
				t.Errorf("%s: node %d refuses", fc.name, i)
			}
		}
	}
}

// TestSendBucketsOpenEachFileOnce: a node sending its p−1 buckets, each a
// section of every one of its R runs, opens each run's file once and
// repositions its Reader from section to section, merging on one tree —
// it allocates a few objects per file and per message, not per section.
func TestSendBucketsOpenEachFileOnce(t *testing.T) {
	const p, runs, per = 8, 3, 4000
	v := perf.Homogeneous(p)
	opens := 0
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64,
		Disks: func(int) diskio.FS { return &openCounter{FS: diskio.NewMemFS(), opens: &opens} }})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	w := &worker{n: n, cfg: Config{Perf: v, BlockKeys: 64, MemoryKeys: 4096, Tapes: 4, MessageKeys: 256}}
	for r := 0; r < runs; r++ {
		keys := record.Uniform.Generate(per, int64(r), 1)
		slices.Sort(keys)
		name := fmt.Sprintf("run%d", r)
		if err := diskio.WriteFile(n.FS(), name, keys, 64, diskio.Accounting{}); err != nil {
			t.Fatal(err)
		}
		w.runs = append(w.runs, diskio.Section{Name: name, Keys: per})
		for j := 0; j <= p; j++ {
			w.cuts = append(w.cuts, int64(j*per/p))
		}
	}
	send := func() {
		w.files, w.secs = diskio.Readers{FS: n.FS(), BlockKeys: 64, Acct: w.acct()}, w.secs[:0]
		for d := 1; d < p; d++ {
			if _, err := w.sendBucket(d, 1, w.bucket(0, d), d); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.files.Close(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if opens != runs {
		t.Fatalf("sending %d buckets of %d runs opened %d files", p-1, runs, opens)
	}
	msgs := (p - 1) * (runs*per/p/w.cfg.MessageKeys + 2)
	if allocs := testing.AllocsPerRun(5, send); allocs > float64(4*runs+2*msgs) {
		t.Fatalf("sending %d buckets allocated %.0f objects, more than 4 a file and 2 a message (%d)", p-1, allocs, 4*runs+2*msgs)
	}
}

// openCounter counts the files opened on a disk.
type openCounter struct {
	diskio.FS
	opens *int
}

func (o *openCounter) Open(name string) (diskio.File, error) {
	*o.opens++
	return o.FS.Open(name)
}
