package extsort

import (
	"fmt"
	"strings"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
)

// TestTopoLevelsAndRouting checks the routing algebra the hierarchical
// redistribution stands on: the levels strictly decrease from p to 1,
// every bucket reaches its destination after the rounds, a destination
// inside the sender's own sub-block routes to the sender itself, and
// roundInNeighbors is the exact inverse of routeStep.
func TestTopoLevelsAndRouting(t *testing.T) {
	for _, topo := range []Topology{TopologyTree, TopologyGrid} {
		for _, radix := range []int{2, 3, 4, 16} {
			for _, p := range []int{1, 2, 3, 4, 5, 8, 16, 17, 31, 64, 100} {
				lv := topoLevels(p, resolveRadix(p, topo, radix))
				if lv[0] != p && p > 1 {
					t.Fatalf("p=%d %v r%d: levels %v do not start at p", p, topo, radix, lv)
				}
				if lv[len(lv)-1] != 1 {
					t.Fatalf("p=%d %v r%d: levels %v do not end at 1", p, topo, radix, lv)
				}
				for i := 1; i < len(lv) && p > 1; i++ {
					if lv[i] >= lv[i-1] {
						t.Fatalf("p=%d %v r%d: levels %v not strictly decreasing", p, topo, radix, lv)
					}
				}
				// Simulate the rounds: holder[src][dest] is where src's
				// bucket for dest currently lives.
				holder := make([][]int, p)
				for s := range holder {
					holder[s] = make([]int, p)
					for d := range holder[s] {
						holder[s][d] = s
					}
				}
				for ri := 0; ri+1 < len(lv); ri++ {
					s, sub := lv[ri], lv[ri+1]
					for src := 0; src < p; src++ {
						for d := 0; d < p; d++ {
							h := holder[src][d]
							rep := routeStep(h, d/sub*sub, s, sub, p)
							if rep/sub != d/sub && sub > 1 {
								t.Fatalf("p=%d %v r%d round %d: bucket %d->%d routed to %d outside dest sub-block",
									p, topo, radix, ri, src, d, rep)
							}
							if h/sub == d/sub && rep != h {
								t.Fatalf("p=%d %v r%d round %d: dest %d in holder %d's own sub-block must stay local, routed to %d",
									p, topo, radix, ri, d, h, rep)
							}
							if rep != h {
								found := false
								for _, in := range roundInNeighbors(rep, s, sub, p) {
									if in == h {
										found = true
									}
								}
								if !found {
									t.Fatalf("p=%d %v r%d round %d: %d routes to %d but is not an in-neighbor",
										p, topo, radix, ri, h, rep)
								}
							}
							holder[src][d] = rep
						}
					}
				}
				for src := 0; src < p; src++ {
					for d := 0; d < p; d++ {
						if holder[src][d] != d {
							t.Fatalf("p=%d %v r%d: bucket %d->%d stranded at %d", p, topo, radix, src, d, holder[src][d])
						}
					}
				}
			}
		}
	}
}

// TestPeakFanInScaling is the point of the topologies: the hierarchical
// per-round fan-in must stay O(r) while the flat all-to-all's grows
// linearly in p.
func TestPeakFanInScaling(t *testing.T) {
	for _, p := range []int{16, 64, 256, 1024} {
		flat := PeakFanIn(p, TopologyFlat, 0)
		if flat != p {
			t.Fatalf("flat peak fan-in %d, want %d", flat, p)
		}
		for _, radix := range []int{2, 4, 16} {
			tree := PeakFanIn(p, TopologyTree, radix)
			if tree > 2*radix {
				t.Fatalf("p=%d r%d: tree peak fan-in %d exceeds 2r", p, radix, tree)
			}
			if radix < p && tree >= flat {
				// radix >= p degenerates to a single all-to-all round.
				t.Fatalf("p=%d r%d: tree peak fan-in %d not below flat %d", p, radix, tree, flat)
			}
		}
		grid := PeakFanIn(p, TopologyGrid, 0)
		if g := resolveRadix(p, TopologyGrid, 0); grid > 2*g {
			t.Fatalf("p=%d: grid peak fan-in %d exceeds 2⌈√p⌉=%d", p, grid, 2*g)
		}
	}
	// Link-buffer memory must grow sub-quadratically for the tree.
	var cfg Config
	flat1k := cfg.LinkMemoryBytes(1024)
	cfg.Topology = TopologyTree
	tree1k := cfg.LinkMemoryBytes(1024)
	if tree1k*16 > flat1k {
		t.Fatalf("tree link memory %d not well below flat %d at p=1024", tree1k, flat1k)
	}
}

// nodeOutputs reads every node's output file.
func nodeOutputs(t *testing.T, c *cluster.Cluster, block int) [][]record.Key {
	t.Helper()
	out := make([][]record.Key, c.P())
	for i := 0; i < c.P(); i++ {
		part, err := diskio.ReadFileAll(c.Node(i).FS(), "output", block, diskio.Accounting{})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = part
	}
	return out
}

// runTopo distributes the same input (same seed) on a fresh cluster and
// sorts it under the given topology.
func runTopo(t *testing.T, v perf.Vector, cfg Config, n, seed int64) (*cluster.Cluster, *Result) {
	t.Helper()
	c := newCluster(t, v)
	sum, err := DistributeInput(c, v, record.Uniform, n, seed, cfg.BlockKeys, "input")
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
	return c, res
}

// TestTopologyByteEquivalence is the acceptance invariant: tree and grid
// runs must produce per-node output byte-identical to the flat run, for
// radix powers and ragged cluster sizes alike.
func TestTopologyByteEquivalence(t *testing.T) {
	cases := []struct {
		v perf.Vector
	}{
		{perf.Homogeneous(2)},
		{perf.Homogeneous(4)},
		{perf.Homogeneous(5)},
		{perf.Vector{1, 1, 4, 4}},
		{perf.Homogeneous(8)},
		{perf.Vector{8, 5, 3, 1, 8, 5, 3, 1}},
		{perf.Homogeneous(16)},
	}
	for _, tc := range cases {
		v := tc.v
		base := testConfig(v)
		n := v.NearestValidSize(int64(4000 * len(v)))
		flatCluster, _ := runTopo(t, v, base, n, 11)
		want := nodeOutputs(t, flatCluster, base.BlockKeys)
		variants := []struct {
			name  string
			topo  Topology
			radix int
		}{
			{"tree-r2", TopologyTree, 2},
			{"tree-r4", TopologyTree, 4},
			{"tree-r16", TopologyTree, 16},
			{"grid", TopologyGrid, 0},
		}
		for _, vr := range variants {
			t.Run(fmt.Sprintf("p%d-%s", len(v), vr.name), func(t *testing.T) {
				cfg := base
				cfg.Topology = vr.topo
				cfg.Radix = vr.radix
				c, _ := runTopo(t, v, cfg, n, 11)
				got := nodeOutputs(t, c, cfg.BlockKeys)
				for i := range want {
					if len(got[i]) != len(want[i]) {
						t.Fatalf("node %d: %d keys, flat %d", i, len(got[i]), len(want[i]))
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("node %d diverges from flat at key %d", i, j)
						}
					}
				}
			})
		}
	}
}

// TestTopologyStrategyEquivalence runs every pivot strategy under the
// tree topology.  The exact strategies must match the flat run per node;
// the quantile sketch's merge is order-sensitive, so there only the
// global concatenation must match (both are the sorted input multiset).
func TestTopologyStrategyEquivalence(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(16000)
	for _, strat := range []Strategy{RegularSampling, RandomPivots, QuantileSketch} {
		t.Run(strat.String(), func(t *testing.T) {
			base := testConfig(v)
			base.Strategy = strat
			base.Seed = 99
			flatCluster, _ := runTopo(t, v, base, n, 13)
			want := nodeOutputs(t, flatCluster, base.BlockKeys)
			cfg := base
			cfg.Topology = TopologyTree
			cfg.Radix = 2
			c, _ := runTopo(t, v, cfg, n, 13)
			got := nodeOutputs(t, c, cfg.BlockKeys)
			if strat == QuantileSketch {
				var flatAll, treeAll []record.Key
				for i := range want {
					flatAll = append(flatAll, want[i]...)
					treeAll = append(treeAll, got[i]...)
				}
				if len(flatAll) != len(treeAll) {
					t.Fatalf("global output %d keys, flat %d", len(treeAll), len(flatAll))
				}
				for j := range flatAll {
					if flatAll[j] != treeAll[j] {
						t.Fatalf("global output diverges at key %d", j)
					}
				}
				return
			}
			for i := range want {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("node %d output differs from flat", i)
				}
			}
		})
	}
}

// TestTopologyPipelineEquivalence fuses the final round into the output
// merge (pipeline=true; false forces the fallback) and must still match
// the flat barrier run byte for byte.
func TestTopologyPipelineEquivalence(t *testing.T) {
	v := perf.Homogeneous(8)
	n := v.NearestValidSize(32000)
	base := testConfig(v)
	flatCluster, _ := runTopo(t, v, unfuse(base), n, 17)
	want := nodeOutputs(t, flatCluster, base.BlockKeys)
	for _, topo := range []Topology{TopologyTree, TopologyGrid} {
		for _, pipe := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v-pipeline=%v", topo, pipe), func(t *testing.T) {
				cfg := base
				if !pipe {
					cfg = unfuse(base)
				}
				cfg.Topology = topo
				cfg.Radix = 3
				c, _ := runTopo(t, v, cfg, n, 17)
				got := nodeOutputs(t, c, cfg.BlockKeys)
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Fatalf("node %d output differs from flat", i)
					}
				}
			})
		}
	}
}

// TestTopologyFanInMetric checks the deterministic protocol fan-in gauge
// the scaling bench gates on: hierarchical runs must report a peak open
// stream count well under the flat path's p.
func TestTopologyFanInMetric(t *testing.T) {
	v := perf.Homogeneous(16)
	n := v.NearestValidSize(32000)
	base := testConfig(v)
	flatCluster, _ := runTopo(t, v, base, n, 19)
	cfg := base
	cfg.Topology = TopologyTree
	cfg.Radix = 2
	treeCluster, _ := runTopo(t, v, cfg, n, 19)
	flatFan := 0.0
	treeFan := 0.0
	for i := 0; i < len(v); i++ {
		if g := flatCluster.Node(i).Metrics().Gauge("redist.fanin.streams").Value(); g > flatFan {
			flatFan = g
		}
		if g := treeCluster.Node(i).Metrics().Gauge("redist.fanin.streams").Value(); g > treeFan {
			treeFan = g
		}
	}
	if flatFan != float64(len(v)) {
		t.Fatalf("flat fan-in gauge %v, want %d", flatFan, len(v))
	}
	if treeFan >= flatFan || treeFan > float64(PeakFanIn(len(v), TopologyTree, 2)) {
		t.Fatalf("tree fan-in gauge %v (flat %v, bound %d)", treeFan, flatFan,
			PeakFanIn(len(v), TopologyTree, 2))
	}
	// Fewer links materialize than the flat mesh.
	if lc := treeCluster.LinksCreated(); lc >= len(v)*len(v) {
		t.Fatalf("tree run created the full %d-link mesh", lc)
	}
}

// TestTreePivotTheorem1 is the property test for hierarchically
// aggregated pivots: pivots produced by the radix-r reduction tree must
// still satisfy the Theorem-1 guarantee — node i's final partition holds
// at most twice its optimal share, plus the worst duplicate multiplicity
// (section 3.1's U+d relaxation, since keys equal to a pivot all route
// to one node) — on uniform, zipfian and all-duplicate inputs.
func TestTreePivotTheorem1(t *testing.T) {
	allDup := func(n int) []record.Key {
		keys := make([]record.Key, n)
		for i := range keys {
			keys[i] = 424242
		}
		return keys
	}
	inputs := []struct {
		name string
		gen  func(n, p int) []record.Key
	}{
		{"uniform", func(n, p int) []record.Key { return record.Uniform.Generate(n, 29, p) }},
		{"zipf", func(n, p int) []record.Key { return record.Zipf.Generate(n, 31, p) }},
		{"all-dup", func(n, _ int) []record.Key { return allDup(n) }},
	}
	variants := []struct {
		name  string
		topo  Topology
		radix int
	}{
		{"tree-r2", TopologyTree, 2},
		{"tree-r4", TopologyTree, 4},
		{"grid", TopologyGrid, 0},
	}
	for _, v := range []perf.Vector{perf.Homogeneous(8), {1, 1, 4, 4}, {8, 5, 3, 1, 8, 5, 3, 1}} {
		v := v
		n := v.NearestValidSize(int64(2000 * len(v)))
		for _, in := range inputs {
			keys := in.gen(int(n), len(v))
			maxDup := maxMultiplicity(keys)
			for _, vr := range variants {
				t.Run(fmt.Sprintf("p%d-%s-%s", len(v), in.name, vr.name), func(t *testing.T) {
					cfg := testConfig(v)
					cfg.Topology = vr.topo
					cfg.Radix = vr.radix
					c := newCluster(t, v)
					sum := distributeKeys(t, c, v, keys, cfg.BlockKeys, "input")
					if _, err := Sort(c, cfg, "input", "output"); err != nil {
						t.Fatal(err)
					}
					if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
						t.Fatal(err)
					}
					for i, part := range nodeOutputs(t, c, cfg.BlockKeys) {
						bound := sampling.TheoreticalBound(n, v, i, maxDup)
						if float64(len(part)) > bound {
							t.Errorf("node %d holds %d keys > 2*opt+maxdup(%d) = %.1f (Theorem 1 violated)",
								i, len(part), maxDup, bound)
						}
					}
				})
			}
		}
	}
}

// distributeKeys is StageInput failing the test on error.
func distributeKeys(t *testing.T, c *cluster.Cluster, v perf.Vector, keys []record.Key, block int, name string) record.Checksum {
	t.Helper()
	sum, err := StageInput(c, v, keys, block, name)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// maxMultiplicity returns the count of the most frequent key.
func maxMultiplicity(keys []record.Key) int64 {
	counts := make(map[record.Key]int64, len(keys))
	var most int64
	for _, k := range keys {
		counts[k]++
		if counts[k] > most {
			most = counts[k]
		}
	}
	return most
}

// TestHierCrashResume kills nodes at the redistribution-phase crash
// points of a tree-topology checkpointed run; the resume must finish
// with output identical to the uninterrupted run.
func TestHierCrashResume(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4, 1, 1, 4, 4}
	n := v.NearestValidSize(1 << 14)
	base := testConfig(v)
	base.Checkpoint = true
	base.Topology = TopologyTree
	base.Radix = 2
	const seed = 23

	refC := newCluster(t, v)
	refSum, err := DistributeInput(refC, v, record.Uniform, n, seed, base.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	refCfg := base
	refCfg.InputSum = refSum
	if _, err := Sort(refC, refCfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	want := collectOutput(t, refC, base.BlockKeys)

	points := []string{
		StepNames[2], "committed:" + StepNames[2],
		StepNames[3], "committed:" + StepNames[3],
		StepNames[4], "committed:" + StepNames[4],
	}
	for pi, point := range points {
		point := point
		crashNode := (pi * 3) % len(v)
		t.Run(point, func(t *testing.T) {
			c := newCluster(t, v)
			sum, err := DistributeInput(c, v, record.Uniform, n, seed, base.BlockKeys, "input")
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.InputSum = sum
			if err := c.ScheduleCrash(crashNode, -1, point); err != nil {
				t.Fatal(err)
			}
			if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
				t.Fatalf("crash at %q did not surface: %v", point, err)
			}
			if _, _, err := Resume(c, cfg, "input", "output"); err != nil {
				t.Fatalf("resume after crash at %q: %v", point, err)
			}
			if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
				t.Fatalf("resumed output: %v", err)
			}
			got := collectOutput(t, c, cfg.BlockKeys)
			if len(got) != len(want) {
				t.Fatalf("resumed output has %d keys, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("resumed output diverges at key %d", i)
				}
			}
			// No stale round intermediates may survive the phase-5 sweep.
			for i := 0; i < c.P(); i++ {
				names, err := c.Node(i).FS().Names()
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					if strings.HasPrefix(name, roundPrefix) {
						t.Fatalf("node %d kept stale intermediate %s", i, name)
					}
				}
			}
		})
	}
}

// TestBucketWithNoInNeighborsAdvancesFree: at a ragged p some nodes get
// no peer's data in round 0 (p=5, r=2: levels {5,4,2,1}, nodes 1–3), so
// their buckets reach round 1 as the sections of the sorted file they
// already are — no I/O, checkpointing or not (a checkpointed run used to
// copy them with counted I/O to keep the step-3 files).  The run must
// also resume from those sections after a crash.
func TestBucketWithNoInNeighborsAdvancesFree(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4, 1}
	p := len(v)
	var own []int
	for q := range v {
		own = append(own, ownRounds(q, topoLevels(p, 2), p))
	}
	if fmt.Sprint(own) != "[0 1 1 1 0]" {
		t.Fatalf("rounds without in-neighbors %v, want [0 1 1 1 0]", own)
	}
	n := v.NearestValidSize(20000)
	// On the fallback: a fused final round spills its streams under
	// Checkpoint, the one legitimate difference between the two runs.
	cfg := unfuse(testConfig(v))
	cfg.Topology, cfg.Radix = TopologyTree, 2
	_, plain := runTopo(t, v, cfg, n, 61)
	cfg.Checkpoint = true
	_, ckpt := runTopo(t, v, cfg, n, 61)
	for i := range v {
		// The step's window also holds its manifest commit: one write, one seek.
		want := plain.StepIO[3][i]
		want.Writes++
		want.Seeks++
		if got := ckpt.StepIO[3][i]; got != want {
			t.Errorf("node %d: checkpointed step-4 I/O %+v, want the plain run's plus the commit, %+v", i, got, want)
		}
	}

	c := newCluster(t, v)
	sum, err := DistributeInput(c, v, record.Uniform, n, 61, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	if err := c.ScheduleCrash(2, -1, StepNames[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
	if _, _, err := Resume(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
}

// TestFlatIsRadixPTree: the flat topology is the tree at radix ≥ p — a
// star of collectives, one redistribution round, fan-in p — and nothing
// else: no code path asks which of the two it is running.  So under
// every pivot strategy the two must agree on every output byte, on the
// whole Result (virtual time, per-step times and I/O, pivots, step-2
// accounting), on the message count and on the fan-in gauge, barrier
// (pipeline=false forces the fallback) or fused, with and without
// checkpoints, and on the outcome of a crash in step 4 and its resume.
func TestFlatIsRadixPTree(t *testing.T) {
	type outcome struct {
		out   [][]record.Key
		res   *Result
		fanIn []float64
		msgs  int64
	}
	run := func(t *testing.T, v perf.Vector, cfg Config, n int64, crash bool) outcome {
		t.Helper()
		c := newCluster(t, v)
		sum, err := DistributeInput(c, v, record.Uniform, n, 31, cfg.BlockKeys, "input")
		if err != nil {
			t.Fatal(err)
		}
		cfg.InputSum = sum
		var res *Result
		if crash {
			if err := c.ScheduleCrash(len(v)/2, -1, StepNames[3]); err != nil {
				t.Fatal(err)
			}
			if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
				t.Fatalf("crash in step 4 did not surface: %v", err)
			}
			res, _, err = Resume(c, cfg, "input", "output")
		} else {
			res, err = Sort(c, cfg, "input", "output")
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
			t.Fatal(err)
		}
		o := outcome{out: nodeOutputs(t, c, cfg.BlockKeys), res: res}
		for i := range v {
			o.fanIn = append(o.fanIn, c.Node(i).Metrics().Gauge("redist.fanin.streams").Value())
			o.msgs += c.Node(i).Metrics().Counter("net.sent.msgs").Value()
		}
		return o
	}
	for _, p := range []int{2, 3, 4, 7, 9} {
		v := make(perf.Vector, p)
		for i := range v {
			v[i] = []int{1, 1, 4, 4}[i%4]
		}
		n := v.NearestValidSize(int64(3000 * p))
		if flat, tree := PeakFanIn(p, TopologyFlat, 4), PeakFanIn(p, TopologyTree, p); flat != p || tree != p {
			t.Errorf("p=%d: PeakFanIn flat %d, radix-p tree %d, want %d", p, flat, tree, p)
		}
		for _, strat := range []Strategy{RegularSampling, RandomPivots, QuantileSketch, Histogram} {
			for _, pipe := range []bool{false, true} {
				for _, mode := range []string{"plain", "checkpoint", "crash-resume"} {
					t.Run(fmt.Sprintf("p%d-%v-pipeline=%v-%s", p, strat, pipe, mode), func(t *testing.T) {
						cfg := testConfig(v)
						cfg.MemoryKeys = 8192 // room for the 9-way fused merge
						if !pipe {
							cfg = unfuse(cfg)
						}
						cfg.Strategy, cfg.Seed = strat, 77
						cfg.Checkpoint = mode != "plain"
						crash := mode == "crash-resume"
						flat := run(t, v, cfg, n, crash)
						cfg.Topology, cfg.Radix = TopologyTree, p+1
						tree := run(t, v, cfg, n, crash)
						for i := range v {
							if fmt.Sprint(flat.out[i]) != fmt.Sprint(tree.out[i]) {
								t.Fatalf("node %d output differs", i)
							}
							if flat.fanIn[i] != float64(p) || tree.fanIn[i] != float64(p) {
								t.Errorf("node %d fan-in gauge: flat %v, tree %v, want %d", i, flat.fanIn[i], tree.fanIn[i], p)
							}
						}
						if fmt.Sprint(flat.res.PartitionSizes, flat.res.Pivots) != fmt.Sprint(tree.res.PartitionSizes, tree.res.Pivots) {
							t.Errorf("partitions and pivots: flat %v %v, tree %v %v",
								flat.res.PartitionSizes, flat.res.Pivots, tree.res.PartitionSizes, tree.res.Pivots)
						}
						if f, tr := fmt.Sprintf("%+v", *flat.res), fmt.Sprintf("%+v", *tree.res); f != tr {
							t.Errorf("results differ:\nflat %s\ntree %s", f, tr)
						}
						if flat.msgs != tree.msgs {
							t.Errorf("messages sent: flat %d, tree %d", flat.msgs, tree.msgs)
						}
					})
				}
			}
		}
	}
}
