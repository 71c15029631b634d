package extsort

import (
	"math"
	"slices"
	"sort"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/histsort"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

func TestStrategyStrings(t *testing.T) {
	if RegularSampling.String() != "regular-sampling" ||
		RandomPivots.String() != "random-pivots" {
		t.Fatal("strategy strings")
	}
	if Strategy(42).String() == "" {
		t.Fatal("unknown strategy string")
	}
}

func TestAllStrategiesSortCorrectly(t *testing.T) {
	for _, strat := range []Strategy{RegularSampling, RandomPivots} {
		for _, v := range []perf.Vector{perf.Homogeneous(4), {1, 1, 4, 4}} {
			t.Run(strat.String()+"/"+v.String(), func(t *testing.T) {
				c := newCluster(t, v)
				cfg := testConfig(v)
				cfg.Strategy = strat
				cfg.Seed = 7
				runSort(t, c, v, cfg, record.Uniform, v.NearestValidSize(20000), 3)
			})
		}
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Strategy = Strategy(42)
	if _, err := DistributeInput(c, v, record.Uniform, 4096, 1, cfg.BlockKeys, "input"); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestRegularBeatsRandomPivotsOnBalance(t *testing.T) {
	// The point of sampling "in a regular way": random pivots give
	// visibly worse sublist expansion on the same input.
	v := perf.Homogeneous(4)
	n := int64(40000)
	run := func(s Strategy) float64 {
		c := newCluster(t, v)
		cfg := testConfig(v)
		cfg.Strategy = s
		cfg.Seed = 99
		res := runSort(t, c, v, cfg, record.Uniform, n, 13)
		return res.SublistExpansion
	}
	reg := run(RegularSampling)
	rnd := run(RandomPivots)
	if reg > 1.15 {
		t.Fatalf("regular sampling expansion %v should be near 1", reg)
	}
	if rnd <= reg {
		t.Logf("note: random pivots happened to balance well this seed (%v vs %v)", rnd, reg)
	}
}

// TestCountSublistsBlockFastPath compares scanRanks, which books a whole
// block when its last key is still at or below the current query, with
// the per-key definition (query j counts the keys k <= fine[j], the
// largest of them and the smallest key above) at the places where the
// two could part: a pivot equal to a block's last key, duplicates
// straddling a block edge, no pivots at all, every key above the last
// pivot, and a final block of one key.  The compute charge must stay one
// op per key whichever path a block takes.
func TestCountSublistsBlockFastPath(t *testing.T) {
	const block = 4
	type sublistCase struct {
		name       string
		keys, fine []record.Key
	}
	cases := []sublistCase{
		{"pivot-is-block-last-key", []record.Key{1, 2, 3, 4, 5, 6, 7, 8, 9}, []record.Key{4, 8}},
		{"pivot-is-next-block-first-key", []record.Key{1, 2, 3, 4, 5, 6, 7, 8, 9}, []record.Key{5}},
		{"duplicates-straddle-block-edge", []record.Key{1, 2, 7, 7, 7, 7, 9, 9, 9, 9, 9, 12}, []record.Key{7, 9}},
		{"duplicate-pivots", []record.Key{1, 2, 3, 4, 5, 6, 7, 8}, []record.Key{4, 4, 4, 6}},
		{"fine-empty", []record.Key{3, 3, 5, 8, 13}, nil},
		{"all-above-last-pivot", []record.Key{10, 11, 12, 13, 14, 15, 16, 17, 18}, []record.Key{2, 5, 9}},
		{"all-below-first-pivot", []record.Key{1, 1, 2, 3, 5, 8, 13, 21}, []record.Key{100, 200}},
		{"one-key-final-block", []record.Key{1, 2, 3, 4, 9}, []record.Key{4, 8}},
		{"one-key-final-block-on-pivot", []record.Key{1, 2, 3, 4, 8}, []record.Key{3, 8}},
		{"all-equal-on-pivot", []record.Key{6, 6, 6, 6, 6, 6, 6, 6, 6, 6}, []record.Key{6}},
		{"empty-file", nil, []record.Key{1}},
	}
	zipf := record.ZipfS2.Generate(1003, 7, 1)
	sort.Slice(zipf, func(i, j int) bool { return zipf[i] < zipf[j] })
	cases = append(cases, sublistCase{"zipf-s2", zipf, []record.Key{zipf[0], zipf[250], zipf[501], zipf[502], zipf[1002]}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := perf.Homogeneous(1)
			n := newCluster(t, v).Node(0)
			if err := diskio.WriteFile(n.FS(), sortedName, tc.keys, block, diskio.Accounting{}); err != nil {
				t.Fatal(err)
			}
			want := make([]histsort.Count, len(tc.fine))
			for j, q := range tc.fine {
				want[j].Succ = noKey
				for _, k := range tc.keys {
					if k <= q {
						want[j].N++
						want[j].Pred = k
					} else if k < want[j].Succ {
						want[j].Succ = k
					}
				}
			}
			w := &worker{n: n, cfg: Config{BlockKeys: block}}
			got, err := w.scanRanks(diskio.Section{Name: sortedName, Keys: int64(len(tc.keys))}, tc.fine, diskio.Accounting{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("scanRanks = %v, per-key loop = %v", got, want)
			}
			// The scan's reads went to no meter, so the clock is its compute.
			if ops := n.Clock() / vtime.DefaultCostModel().ComputeSec; math.Abs(ops-float64(len(tc.keys))) > 1e-6 {
				t.Fatalf("scan charged %.3f compute ops for %d keys, want one per key", ops, len(tc.keys))
			}
		})
	}
}
