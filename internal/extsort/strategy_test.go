package extsort

import (
	"math"
	"slices"
	"sort"
	"testing"

	"hetsort/internal/diskio"
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
		return res.SublistExpansion(v)
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

func TestQuantileSketchStrategy(t *testing.T) {
	for _, v := range []perf.Vector{perf.Homogeneous(4), {1, 1, 4, 4}} {
		t.Run(v.String(), func(t *testing.T) {
			c := newCluster(t, v)
			cfg := testConfig(v)
			cfg.Strategy = QuantileSketch
			res := runSort(t, c, v, cfg, record.Uniform, v.NearestValidSize(40000), 17)
			// Sketch pivots are not grid-limited: heterogeneous balance
			// should beat the regular-sampling quantization band.
			if exp := res.SublistExpansion(v); exp > 1.12 {
				t.Fatalf("quantile-sketch expansion %v too high", exp)
			}
		})
	}
}

func TestQuantileSketchExtraPassAccounted(t *testing.T) {
	// The sketch pass reads the sorted file once more: step 2 reads
	// ~l/B blocks instead of a handful of sampled keys.
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Strategy = QuantileSketch
	const n = 32768
	res := runSort(t, c, v, cfg, record.Uniform, n, 19)
	blocks := int64(n/2) / int64(cfg.BlockKeys)
	for i := 0; i < 2; i++ {
		got := res.StepIO[1][i].Reads
		if got < blocks || got > blocks+4 {
			t.Fatalf("node %d step-2 reads %d want ~%d (full sketch pass)", i, got, blocks)
		}
	}
}

func TestQuantileSketchAllDistributions(t *testing.T) {
	v := perf.Vector{1, 2}
	for _, d := range record.Distributions() {
		t.Run(d.String(), func(t *testing.T) {
			c := newCluster(t, v)
			cfg := testConfig(v)
			cfg.Strategy = QuantileSketch
			runSort(t, c, v, cfg, d, v.NearestValidSize(12000), 23)
		})
	}
}

// TestCountSublistsBlockFastPath compares countSublists, which books a
// whole block when its last key is still inside the current sublist, with
// the per-key definition (sublist j holds fine[j-1] < k <= fine[j]) at the
// places where the two could part: a pivot equal to a block's last key,
// duplicates straddling a block edge, no pivots at all, every key above
// the last pivot, and a final block of one key.  The compute charge must
// stay one op per key whichever path a block takes.
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
			want := make([]int64, len(tc.fine)+1)
			for _, k := range tc.keys {
				j := 0
				for j < len(tc.fine) && k > tc.fine[j] {
					j++
				}
				want[j]++
			}
			w := &worker{n: n, cfg: Config{BlockKeys: block}}
			got, err := w.countSublists(tc.fine, diskio.Accounting{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("countSublists = %v, per-key loop = %v", got, want)
			}
			// The scan's reads went to no meter, so the clock is its compute.
			if ops := n.Clock() / vtime.DefaultCostModel().ComputeSec; math.Abs(ops-float64(len(tc.keys))) > 1e-6 {
				t.Fatalf("scan charged %.3f compute ops for %d keys, want one per key", ops, len(tc.keys))
			}
		})
	}
}
