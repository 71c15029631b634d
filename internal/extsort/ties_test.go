package extsort

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
)

// skew4Config is skew4-hist's shape at test scale: {1,1,4,4}, 4 tapes,
// Guidesort, steps 4+5 fused and checkpoints.
func skew4Config(strat Strategy) (perf.Vector, Config) {
	v := perf.Vector{1, 1, 4, 4}
	cfg := testConfig(v)
	cfg.Tapes, cfg.RunFormation, cfg.Strategy, cfg.Checkpoint = 4, polyphase.Guidesort, strat, true
	return v, cfg
}

// tiedSHA is the SHA-256 of the concatenated output of the zipf-s2
// input below, captured from a run with key cuts (extsort-v6): a cut
// position moves keys between nodes, never within that output.
const tiedSHA = "4f7d5744d13492a469a76bb990edf6bb7988c7fa4975c5c0d184e2cc36865189"

const skew4Seed = 47

func skew4N(v perf.Vector) int64 { return v.NearestValidSize(1 << 14) }

func outputSHA(keys []record.Key) string {
	sum := sha256.Sum256(record.EncodeKeys(nil, keys))
	return hex.EncodeToString(sum[:])
}

// histTol is the partition tolerance extsort's histogram strategy holds:
// HistTolerance·min_share, half of it per cut, at least one key a cut.
func histTol(cfg Config, shares []int64) int64 {
	return 2 * max(int64(cfg.HistTolerance*float64(slices.Min(shares)))/2, 1)
}

// checkBalance holds every partition to its strategy's bound with no
// multiplicity term: Theorem 1's 2·share for the sampling strategies,
// share + tol for the histogram.
func checkBalance(t *testing.T, cfg Config, v perf.Vector, sizes []int64) {
	t.Helper()
	var n int64
	for _, s := range sizes {
		n += s
	}
	shares := v.Shares(n)
	for i, got := range sizes {
		bound := 2 * shares[i]
		if cfg.Strategy == Histogram {
			bound = shares[i] + histTol(cfg, shares)
		}
		if got > bound {
			t.Fatalf("%s: node %d holds %d keys > %d (partitions %v)", cfg.Strategy, i, got, bound, sizes)
		}
	}
}

// TestTiedCutsSkew4HistShape: on zipf-s2, whose hottest key is ~61 % of
// the input, every pivot of {1,1,4,4} falls on one run of equal keys.
// Cut positions split that run, so every partition holds within its
// bound — flat and on a radix-4 tree, under regular sampling and the
// histogram — and the output is the sorted input.
func TestTiedCutsSkew4HistShape(t *testing.T) {
	for _, strat := range []Strategy{RegularSampling, Histogram} {
		for _, topo := range []Topology{TopologyFlat, TopologyTree} {
			t.Run(fmt.Sprintf("%s/%s", strat, topo), func(t *testing.T) {
				v, cfg := skew4Config(strat)
				cfg.Topology, cfg.Radix = topo, 4
				c := newCluster(t, v)
				res := runSort(t, c, v, cfg, record.ZipfS2, skew4N(v), skew4Seed)
				if res.PivotRounds < 2 {
					t.Fatalf("%d pivot rounds: no tie was settled", res.PivotRounds)
				}
				checkBalance(t, cfg, v, res.PartitionSizes)
				if got := outputSHA(collectOutput(t, c, cfg.BlockKeys)); got != tiedSHA {
					t.Fatalf("output sha256 %s, want %s", got, tiedSHA)
				}
			})
		}
	}
}

// TestTiedCutsDegenerateInputs runs the sampling strategies, whose ties
// settle among the samples, over the shapes where every pivot is tied or
// there is nothing to sample: all keys equal (2·share must still hold,
// which key cuts broke: one node took them all), fewer keys than nodes,
// and a node with no keys — flat and on a radix-2 tree.
func TestTiedCutsDegenerateInputs(t *testing.T) {
	fill := func(n int, k record.Key) []record.Key {
		keys := make([]record.Key, n)
		for i := range keys {
			keys[i] = k
		}
		return keys
	}
	cases := []struct {
		name     string
		parts    [][]record.Key
		balanced bool // large enough portions for Theorem 1 (appliesBalance)
	}{
		{"all-duplicates", [][]record.Key{fill(512, 42), fill(512, 42), fill(2048, 42), fill(2048, 42)}, true},
		{"fewer-keys-than-nodes", [][]record.Key{{9}, {3}, nil, nil}, false},
		{"empty-node", [][]record.Key{fill(700, 5), nil, fill(900, 1<<31), append(fill(300, 5), fill(300, 77)...)}, false},
	}
	for _, tc := range cases {
		for _, strat := range []Strategy{RegularSampling, RandomPivots} {
			for _, topo := range []Topology{TopologyFlat, TopologyTree} {
				t.Run(fmt.Sprintf("%s/%s/%s", tc.name, strat, topo), func(t *testing.T) {
					v := perf.Vector{1, 1, 4, 4}
					cfg := testConfig(v)
					cfg.Strategy, cfg.Topology, cfg.Radix = strat, topo, 2
					c := newCluster(t, v)
					var want []record.Key
					for i, part := range tc.parts {
						if err := diskio.WriteFile(c.Node(i).FS(), "input", part, cfg.BlockKeys, diskio.Accounting{}); err != nil {
							t.Fatal(err)
						}
						want = append(want, part...)
					}
					slices.Sort(want)
					res, err := Sort(c, cfg, "input", "output")
					if err != nil {
						t.Fatal(err)
					}
					if got := collectOutput(t, c, cfg.BlockKeys); !slices.Equal(got, want) {
						t.Fatalf("output holds %d keys, not the %d input keys in order", len(got), len(want))
					}
					if tc.balanced && strat == RegularSampling {
						checkBalance(t, cfg, v, res.PartitionSizes)
					}
				})
			}
		}
	}
}

// TestTiedCutsCrashResumeAtEveryPhase: a node crashes after each step's
// work and after each step's commit, on zipf-s2 where every pivot is
// tied.  The phase-2 to phase-4 manifests carry the ties, so a resumed
// node — one that missed the tie round included — cuts where the
// uninterrupted run did: same partitions, and the output is the key-cut
// run's, byte for byte.
func TestTiedCutsCrashResumeAtEveryPhase(t *testing.T) {
	for _, strat := range []Strategy{RegularSampling, Histogram} {
		v, cfg := skew4Config(strat)
		n := skew4N(v)
		ref := runSort(t, newCluster(t, v), v, cfg, record.ZipfS2, n, skew4Seed)
		var points []string
		for _, s := range StepNames {
			points = append(points, s, "committed:"+s)
		}
		for pi, point := range points {
			crashNode := pi % len(v)
			t.Run(fmt.Sprintf("%s/%s", strat, point), func(t *testing.T) {
				c := newCluster(t, v)
				sum, err := DistributeInput(c, v, record.ZipfS2, n, skew4Seed, cfg.BlockKeys, "input")
				if err != nil {
					t.Fatal(err)
				}
				cfg := cfg
				cfg.InputSum = sum
				if err := c.ScheduleCrash(crashNode, -1, point); err != nil {
					t.Fatal(err)
				}
				if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
					t.Fatalf("crash at %q did not surface: %v", point, err)
				}
				res, _, err := Resume(c, cfg, "input", "output")
				if err != nil {
					t.Fatalf("resume after crash at %q: %v", point, err)
				}
				if !slices.Equal(res.PartitionSizes, ref.PartitionSizes) {
					t.Fatalf("resumed partitions %v, uninterrupted %v", res.PartitionSizes, ref.PartitionSizes)
				}
				if got := outputSHA(collectOutput(t, c, cfg.BlockKeys)); got != tiedSHA {
					t.Fatalf("resumed output sha256 %s, want %s", got, tiedSHA)
				}
			})
		}
	}
}
