package sampling

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hetsort/internal/record"
)

// testRuns draws len(lens) sorted runs of the given lengths, of uniform
// keys or, with values > 0, of that many distinct keys; it returns them
// with their fences, their lengths and their merged order.
func testRuns(rng *rand.Rand, lens []int64, block int64, values uint32) (runs, fences [][]record.Key, all []record.Key) {
	runs, fences = make([][]record.Key, len(lens)), make([][]record.Key, len(lens))
	for r, n := range lens {
		for i := int64(0); i < n; i++ {
			k := record.Key(rng.Uint32())
			if values > 0 {
				k = record.Key(rng.Intn(int(values))) * 1000
			}
			runs[r] = append(runs[r], k)
		}
		slices.Sort(runs[r])
		for b := int64(0); b < n; b += block {
			fences[r] = append(fences[r], runs[r][b])
		}
		all = append(all, runs[r]...)
	}
	slices.Sort(all)
	return runs, fences, all
}

// selectProbed selects the key at position a of the runs, with the
// interpolated midpoint or, with halve, the bracket's middle, and counts
// the probes of every block.
func selectProbed(t *testing.T, runs, fences [][]record.Key, lens []int64, block, a int64, halve bool) (record.Key, map[[2]int64]int) {
	t.Helper()
	probes := map[[2]int64]int{}
	got, err := multiwaySelect(fences, lens, block, []int64{a}, func(r int, b int64, dst []record.Key) ([]record.Key, error) {
		probes[[2]int64{int64(r), b}]++
		return append(dst[:0], runs[r][b*block:min((b+1)*block, lens[r])]...), nil
	}, halve)
	if err != nil {
		t.Fatal(err)
	}
	return got[0], probes
}

// TestMultiwaySelectMatchesMergedOrder holds the selection to the merged
// runs sorted in memory, at every position of small inputs and at
// regularly spaced ones of larger, over uniform keys, a handful of
// values and one value, with runs of ragged lengths including empty
// ones; a position costs fewer than 4 block probes a run, none twice,
// and on duplicate-heavy keys no more than halving the bracket costs.
func TestMultiwaySelectMatchesMergedOrder(t *testing.T) {
	for _, tc := range []struct {
		runs, maxLen int
		block        int64
		values       uint32 // 0: the full key range
	}{
		{2, 40, 4, 0}, {3, 100, 8, 5}, {5, 300, 16, 0}, {13, 2000, 64, 0},
		{13, 2000, 64, 3}, {4, 500, 8, 1}, {7, 64, 64, 0},
	} {
		t.Run(fmt.Sprintf("R=%d/B=%d/values=%d", tc.runs, tc.block, tc.values), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.runs*1000) + tc.block))
			lens := make([]int64, tc.runs)
			for r := range lens {
				if r != 1 {
					lens[r] = int64(rng.Intn(tc.maxLen + 1))
				}
			}
			runs, fences, all := testRuns(rng, lens, tc.block, tc.values)
			var at []int64
			step := max(len(all)/40, 1)
			for a := 0; a < len(all); a += step {
				at = append(at, int64(a))
			}
			for _, a := range at {
				got, probes := selectProbed(t, runs, fences, lens, tc.block, a, false)
				if got != all[a] {
					t.Fatalf("position %d: selected %d, the merged runs hold %d", a, got, all[a])
				}
				for blk, n := range probes {
					if n > 1 {
						t.Fatalf("position %d probed block %v %d times", a, blk, n)
					}
				}
				if len(probes) >= 4*tc.runs {
					t.Fatalf("position %d took %d probes over %d runs", a, len(probes), tc.runs)
				}
				if _, halved := selectProbed(t, runs, fences, lens, tc.block, a, true); tc.values > 0 && len(probes) > len(halved) {
					t.Fatalf("position %d took %d probes, halving the bracket %d", a, len(probes), len(halved))
				}
			}
			got, err := MultiwaySelect(fences, lens, tc.block, at, func(r int, b int64, dst []record.Key) ([]record.Key, error) {
				return append(dst[:0], runs[r][b*tc.block:min((b+1)*tc.block, lens[r])]...), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for j, a := range at {
				if got[j] != all[a] {
					t.Fatalf("batch position %d: selected %d, want %d", a, got[j], all[a])
				}
			}
		})
	}
}

// TestMultiwaySelectProbes holds the interpolated midpoint to its price:
// on uniform keys a position costs at most R + 1.25 probes on average,
// about a block a run (halving the bracket costs about R + 4 at R = 14).
func TestMultiwaySelectProbes(t *testing.T) {
	for _, tc := range []struct {
		runs  int
		block int64
	}{{4, 2048}, {14, 2048}, {14, 256}, {7, 128}} {
		t.Run(fmt.Sprintf("R=%d/B=%d", tc.runs, tc.block), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.runs) + tc.block))
			lens := make([]int64, tc.runs)
			for r := range lens {
				lens[r] = 16*tc.block + rng.Int63n(16*tc.block)
			}
			runs, fences, all := testRuns(rng, lens, tc.block, 0)
			var probes, positions int
			for a := int64(len(all) / 400); a < int64(len(all)); a += int64(len(all) / 200) {
				got, probed := selectProbed(t, runs, fences, lens, tc.block, a, false)
				if got != all[a] {
					t.Fatalf("position %d: selected %d, the merged runs hold %d", a, got, all[a])
				}
				probes, positions = probes+len(probed), positions+1
			}
			if mean := float64(probes) / float64(positions); mean > float64(tc.runs)+1.25 {
				t.Errorf("%.2f probes a position over %d runs, want at most R + 1.25", mean, tc.runs)
			} else {
				t.Logf("%.2f probes a position over %d runs", mean, tc.runs)
			}
		})
	}
}
