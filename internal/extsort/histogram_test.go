package extsort

import (
	"fmt"
	"slices"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

func TestHistogramStrategySortsAndBalances(t *testing.T) {
	for _, v := range []perf.Vector{perf.Homogeneous(4), {1, 1, 4, 4}} {
		t.Run(v.String(), func(t *testing.T) {
			c := newCluster(t, v)
			cfg := testConfig(v)
			cfg.Strategy = Histogram
			res := runSort(t, c, v, cfg, record.Uniform, v.NearestValidSize(40000), 17)
			// Refinement stops once every pivot rank is within
			// tol = 5% of the smallest share, so the expansion must
			// sit inside that band (plus the rare-duplicate slack).
			if exp := res.SublistExpansion; exp > 1.10 {
				t.Fatalf("histogram expansion %v outside the tolerance band", exp)
			}
			if res.PivotRounds < 1 {
				t.Fatalf("histogram reports %d refinement rounds", res.PivotRounds)
			}
			if res.PivotSampleKeys <= 0 {
				t.Fatalf("histogram reports %d sample keys", res.PivotSampleKeys)
			}
		})
	}
}

func TestHistogramAllDistributions(t *testing.T) {
	v := perf.Vector{1, 2}
	for _, d := range record.Distributions() {
		t.Run(d.String(), func(t *testing.T) {
			c := newCluster(t, v)
			cfg := testConfig(v)
			cfg.Strategy = Histogram
			res := runSort(t, c, v, cfg, d, v.NearestValidSize(12000), 23)
			if exp := res.SublistExpansion; exp > 1.05 {
				t.Fatalf("expansion %v > 1 + the default tolerance", exp)
			}
		})
	}
}

// TestHistogramExpansionWithinTolerance: on every generator, with the
// paper's vector repeated to p = 16 (flat), 64 and 256 (radix-4 tree) on
// BENCH_histsort's small machine, no node ends more than the tolerance
// above its share — duplicate plateaus included, which key cuts left at
// up to 388× on zipf-s2.
func TestHistogramExpansionWithinTolerance(t *testing.T) {
	const tol = 0.02
	for _, m := range []struct {
		p    int
		topo Topology
	}{{16, TopologyFlat}, {64, TopologyTree}, {256, TopologyTree}} {
		v := make(perf.Vector, 0, m.p)
		for len(v) < m.p {
			v = append(v, 1, 1, 4, 4)
		}
		for _, d := range record.Distributions() {
			t.Run(fmt.Sprintf("p%d/%s", m.p, d), func(t *testing.T) {
				c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Perf: v, BlockKeys: 64, MemoryKeys: 4096, Tapes: 4, MessageKeys: 1024,
					Topology: m.topo, Radix: 4, Strategy: Histogram, HistTolerance: tol}
				res := runSort(t, c, v, cfg, d, v.NearestValidSize(int64(512*m.p)), 1)
				if exp := res.SublistExpansion; exp > 1+tol {
					t.Fatalf("expansion %v > 1 + %v after %d rounds", exp, tol, res.PivotRounds)
				}
			})
		}
	}
}

func TestHistogramShipsFewerSamplesThanRegular(t *testing.T) {
	// The point of the strategy: candidate broadcasts replace the
	// p*sum(perf) regular samples, so the key-valued sample volume
	// must shrink even after paying for every refinement round.
	v := perf.Vector{1, 1, 4, 4, 1, 1, 4, 4, 1, 1, 4, 4, 1, 1, 4, 4}
	n := v.NearestValidSize(64000)
	run := func(s Strategy) *Report {
		c := newCluster(t, v)
		cfg := testConfig(v)
		cfg.Strategy = s
		return runSort(t, c, v, cfg, record.Uniform, n, 29)
	}
	reg := run(RegularSampling)
	hist := run(Histogram)
	if hist.PivotSampleKeys >= reg.PivotSampleKeys {
		t.Fatalf("histogram shipped %d sample keys, regular sampling %d",
			hist.PivotSampleKeys, reg.PivotSampleKeys)
	}
	if reg.PivotRounds != 1 {
		t.Fatalf("regular sampling reports %d rounds", reg.PivotRounds)
	}
	if hist.PivotRounds < 1 {
		t.Fatalf("histogram reports %d rounds", hist.PivotRounds)
	}
}

func TestHistogramPivotsAgreeAcrossTopologies(t *testing.T) {
	// The count combiner is plain int64 addition, so flat gathers,
	// tree reductions and grid reductions must agree bit-for-bit on
	// every round's aggregated histogram — and therefore on the
	// final pivots.
	v := perf.Vector{1, 1, 2, 2, 4, 4, 1, 2}
	n := v.NearestValidSize(30000)
	run := func(topo Topology) []record.Key {
		c := newCluster(t, v)
		cfg := testConfig(v)
		cfg.Strategy = Histogram
		cfg.Topology = topo
		res := runSort(t, c, v, cfg, record.Zipf, n, 31)
		return res.Pivots
	}
	flat := run(TopologyFlat)
	tree := run(TopologyTree)
	grid := run(TopologyGrid)
	if len(flat) != len(tree) || len(flat) != len(grid) {
		t.Fatalf("pivot counts differ: flat %d tree %d grid %d",
			len(flat), len(tree), len(grid))
	}
	for i := range flat {
		if flat[i] != tree[i] || flat[i] != grid[i] {
			t.Fatalf("pivot %d differs across topologies: flat %d tree %d grid %d",
				i, flat[i], tree[i], grid[i])
		}
	}
}

func TestHistogramDegenerateInputs(t *testing.T) {
	// The same degenerate shapes the other strategies are tested on:
	// empty input, a single key, fewer keys than nodes, and
	// all-duplicates (where refinement cannot shrink any interval and
	// must fall back to midpoint subdivision, then collapse) — plus the
	// shapes that make buckets degenerate sections of the sorted file: a
	// node with nothing to cut, every key at the top of the key range (so
	// the pivots are ^Key(0) and every bucket but the first is empty), and
	// one node, whose only bucket is its whole file.  Each runs through
	// the histogram strategy and through every way a section is consumed:
	// sent, merged in step 5, merged in-stream, advanced through tree
	// rounds and re-sent after a crash.
	fill := func(n int, k record.Key) []record.Key {
		keys := make([]record.Key, n)
		for i := range keys {
			keys[i] = k
		}
		return keys
	}
	cases := []struct {
		name  string
		parts [][]record.Key
	}{
		{"empty", [][]record.Key{nil, nil, nil, nil}},
		{"single-key", [][]record.Key{{7}, nil, nil, nil}},
		{"fewer-keys-than-nodes", [][]record.Key{{9}, {3}, nil, nil}},
		{"all-duplicates", [][]record.Key{fill(2048, 42), fill(2048, 42), fill(2048, 42), fill(2048, 42)}},
		{"empty-node", [][]record.Key{fill(700, 5), nil, fill(900, 1<<31), fill(300, 77)}},
		{"max-key", [][]record.Key{fill(600, ^record.Key(0)), fill(600, ^record.Key(0)), fill(1200, ^record.Key(0)), fill(1200, ^record.Key(0))}},
		{"one-node", [][]record.Key{{5, 3, 9, 1, 1, 8}}},
	}
	paths := []struct {
		name  string
		crash bool
		mut   func(*Config)
	}{
		{"histogram", false, func(c *Config) { c.Strategy = Histogram }},
		{"barrier", false, func(c *Config) { *c = unfuse(*c) }},
		{"fused", false, func(c *Config) { c.MemoryKeys = 8192 }},
		{"tree-checkpoint-resume", true, func(c *Config) { c.Topology, c.Radix, c.Checkpoint = TopologyTree, 2, true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := perf.Vector{1, 1, 2, 2}[:len(tc.parts)]
			var want []record.Key
			for _, part := range tc.parts {
				want = append(want, part...)
			}
			slices.Sort(want)
			for _, path := range paths {
				c := newCluster(t, v)
				cfg := testConfig(v)
				path.mut(&cfg)
				for i, part := range tc.parts {
					if err := diskio.WriteFile(c.Node(i).FS(), "input", part, cfg.BlockKeys, diskio.Accounting{}); err != nil {
						t.Fatal(err)
					}
				}
				cfg.InputSum = record.ChecksumOf(want)
				var err error
				if path.crash {
					// The last node dies with step 4 done but uncommitted;
					// its peers re-send it their buckets on resume.
					if err := c.ScheduleCrash(len(v)-1, -1, StepNames[3]); err != nil {
						t.Fatal(err)
					}
					if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
						t.Fatalf("%s: want crash, got %v", path.name, err)
					}
					_, _, err = Resume(c, cfg, "input", "output")
				} else {
					_, err = Sort(c, cfg, "input", "output")
				}
				if err != nil {
					t.Fatalf("%s: %v", path.name, err)
				}
				if got := collectOutput(t, c, cfg.BlockKeys); !slices.Equal(got, want) {
					t.Fatalf("%s: output holds %d keys, not the %d input keys in order", path.name, len(got), len(want))
				}
			}
		})
	}
}

func TestHistogramCrashResumeByteIdentical(t *testing.T) {
	// Crash+resume must replay the recorded pivots rather than
	// re-refine, so the resumed output is byte-identical to an
	// uninterrupted histogram run.
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 14)
	base := testConfig(v)
	base.Strategy = Histogram
	base.Checkpoint = true
	const seed = 43

	refC := newCluster(t, v)
	refSum, err := DistributeInput(refC, v, record.Zipf, n, seed, base.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	refCfg := base
	refCfg.InputSum = refSum
	if _, err := Sort(refC, refCfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	want := collectOutput(t, refC, base.BlockKeys)

	points := []string{StepNames[1], "committed:" + StepNames[1], StepNames[3]}
	for pi, point := range points {
		point := point
		crashNode := pi % len(v)
		t.Run(point, func(t *testing.T) {
			c := newCluster(t, v)
			sum, err := DistributeInput(c, v, record.Zipf, n, seed, base.BlockKeys, "input")
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
			out := collectOutput(t, c, cfg.BlockKeys)
			if len(out) != len(want) {
				t.Fatalf("resumed output has %d keys, reference %d", len(out), len(want))
			}
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("resumed output diverges at key %d: %d != %d", i, out[i], want[i])
				}
			}
		})
	}
}

func TestTinyPortionsAtWideScaleFallBack(t *testing.T) {
	// p=1024 with two keys per node: every portion is shorter than
	// p·perf_i, so regular sampling samples every key, and step 2 must
	// still sort.
	if testing.Short() {
		t.Skip("p=1024 run in -short mode")
	}
	v := perf.Homogeneous(1024)
	for _, strat := range []Strategy{RegularSampling, Histogram} {
		t.Run(strat.String(), func(t *testing.T) {
			c := newCluster(t, v)
			cfg := testConfig(v)
			cfg.Strategy = strat
			cfg.Topology = TopologyTree
			runSort(t, c, v, cfg, record.Uniform, 2048, 37)
		})
	}
}
