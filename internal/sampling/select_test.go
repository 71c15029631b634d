package sampling

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hetsort/internal/record"
)

// TestMultiwaySelectMatchesMergedOrder holds the selection to the merged
// runs sorted in memory, at every position of small inputs and at
// regularly spaced ones of larger, over uniform keys, a handful of
// values and one value, with runs of ragged lengths including empty
// ones; a position costs fewer than 4 block probes a run, none twice.
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
			runs := make([][]record.Key, tc.runs)
			fences := make([][]record.Key, tc.runs)
			lens := make([]int64, tc.runs)
			var all []record.Key
			for r := range runs {
				n := rng.Intn(tc.maxLen + 1)
				if r == 1 {
					n = 0
				}
				for i := 0; i < n; i++ {
					k := record.Key(rng.Uint32())
					if tc.values > 0 {
						k = record.Key(rng.Intn(int(tc.values))) * 1000
					}
					runs[r] = append(runs[r], k)
				}
				slices.Sort(runs[r])
				for b := 0; b < n; b += int(tc.block) {
					fences[r] = append(fences[r], runs[r][b])
				}
				lens[r] = int64(n)
				all = append(all, runs[r]...)
			}
			slices.Sort(all)
			var at []int64
			step := max(len(all)/40, 1)
			for a := 0; a < len(all); a += step {
				at = append(at, int64(a))
			}
			for _, a := range at {
				probes := map[[2]int64]int{}
				got, err := MultiwaySelect(fences, lens, tc.block, []int64{a}, func(r int, b int64, dst []record.Key) ([]record.Key, error) {
					probes[[2]int64{int64(r), b}]++
					return append(dst[:0], runs[r][b*tc.block:min((b+1)*tc.block, lens[r])]...), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if got[0] != all[a] {
					t.Fatalf("position %d: selected %d, the merged runs hold %d", a, got[0], all[a])
				}
				for blk, n := range probes {
					if n > 1 {
						t.Fatalf("position %d probed block %v %d times", a, blk, n)
					}
				}
				if len(probes) >= 4*tc.runs {
					t.Fatalf("position %d took %d probes over %d runs", a, len(probes), tc.runs)
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
