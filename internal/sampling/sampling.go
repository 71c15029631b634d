// Package sampling implements the pivot-selection machinery of the
// paper: regular sampling (PSRS, Shi & Schaeffer) generalized to
// heterogeneous performance vectors, random sample positions, and the
// sublist-expansion load-balance metric reported in Table 3.
package sampling

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hetsort/internal/perf"
	"hetsort/internal/record"
)

// RegularSampleIndices returns the sample positions of the paper's fseek
// loop (section 4) on a locally sorted portion of n keys: with spacing
// off, the indices off-1, 2*off-1, ... while they fit.  For node i the
// paper passes off = l_i / (perf[i]*p), which makes the spacing equal to
// unit/p on every node — "between any two consecutive pivots there is
// the same number of sorted elements" — where that division is exact;
// step 2 samples at RegularPositions, which agree with it there.
func RegularSampleIndices(n, spacing int64) []int64 {
	if spacing <= 0 || n <= 0 {
		return nil
	}
	var idx []int64
	for i := spacing - 1; i+spacing <= n; i += spacing {
		idx = append(idx, i)
	}
	return idx
}

// RegularPositions returns the positions of a node's regular samples in
// its sorted portion of n keys, for m = p·perf_i: the m−1 positions
// ⌈k·n/m⌉ − 1, k = 1 … m−1, each the last key of one of the first m−1
// of m near-equal slices, so consecutive samples lie ⌊n/m⌋ or ⌈n/m⌉
// keys apart on every node — what Theorem 1 needs of them.  Where m
// divides n these are RegularSampleIndices(n, n/m), the paper's fseek
// loop.  A portion of at most m keys samples every key.
func RegularPositions(n, m int64) []int64 {
	if n <= 0 || m <= 1 {
		return nil
	}
	if n <= m {
		return RegularSampleIndices(n, 1)
	}
	at := make([]int64, m-1)
	for k := range at {
		at[k] = ((int64(k)+1)*n+m-1)/m - 1
	}
	return at
}

// SpacingError reports that a node's portion cannot support regular
// sampling: the spacing l_i/(perf[i]·p) rounds to zero, which happens at
// large p × small portions (each node would owe more samples than it
// holds keys).  Callers typically fall back to shipping the whole
// portion as samples; the structured fields let them say exactly which
// node hit the wall and why.
type SpacingError struct {
	Node    int   // node id (-1 when unknown to the caller)
	Portion int64 // the node's key count l_i
	Perf    int   // the node's perf entry
	P       int   // cluster size
}

func (e *SpacingError) Error() string {
	return fmt.Sprintf("sampling: node %d portion %d too small for regular sampling (needs >= perf*p = %d*%d = %d keys)",
		e.Node, e.Portion, e.Perf, e.P, int64(e.Perf)*int64(e.P))
}

// HeteroSpacing returns node i's sample spacing l_i/(perf[i]*p) and the
// number of samples that produces.  It returns a *SpacingError when the
// portion is too small to sample regularly.
func HeteroSpacing(node int, li int64, perfI, p int) (spacing int64, count int, err error) {
	if perfI <= 0 || p <= 0 {
		return 0, 0, fmt.Errorf("sampling: bad perf=%d p=%d", perfI, p)
	}
	spacing = li / (int64(perfI) * int64(p))
	if spacing <= 0 {
		return 0, 0, &SpacingError{Node: node, Portion: li, Perf: perfI, P: p}
	}
	return spacing, len(RegularSampleIndices(li, spacing)), nil
}

// RegularSamples picks the regularly spaced samples out of a sorted
// in-core slice (the in-core analogue of the fseek loop).
func RegularSamples(sorted []record.Key, spacing int64) []record.Key {
	idx := RegularSampleIndices(int64(len(sorted)), spacing)
	out := make([]record.Key, len(idx))
	for i, j := range idx {
		out[i] = sorted[j]
	}
	return out
}

// CombineSorted merges two sorted sample slices into one sorted slice —
// the combining step of the hierarchical pivot aggregation, where each
// inner tree node folds its children's samples before forwarding.  The
// result is the sorted multiset union, so the root's candidate multiset
// is exactly what a flat gather would have delivered.
func CombineSorted(a, b []record.Key) []record.Key {
	out := make([]record.Key, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// RegularPivotRanks returns where the regular-sampling pivots sit in
// the sorted multiset of m candidates.  The target quantile for pivot j is
// the cumulative performance fraction cum_j/Σperf; when that target is
// not on any node's sample grid, the largest grid point below it is
// chosen.  Rounding *down* under-fills the slow nodes and lets the
// excess land on the fast ones — exactly the behaviour visible in the
// paper's Table 3, where the fast nodes run ~9% above their optimum
// (S(max)=1.094) while the loaded nodes sit below theirs.  Since the
// fast nodes have spare capacity, this direction also minimises the
// makespan.  With no candidates there are no positions (nil).
func RegularPivotRanks(m int, v perf.Vector) ([]int, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	p := len(v)
	if p == 1 || m == 0 {
		return nil, nil
	}
	sum := float64(v.Sum())
	at := make([]int, p-1)
	var cum int64
	for j := range at {
		cum += int64(v[j])
		q := float64(cum) / sum
		// Largest sample-grid quantile <= q over the node grids.
		var qLower float64
		for _, pf := range v {
			g := float64(p * pf)
			if ql := math.Floor(q*g+1e-9) / g; ql > qLower {
				qLower = ql
			}
		}
		// Rank of that grid point in the combined candidate multiset.
		var rank int64
		for _, pf := range v {
			g := float64(p * pf)
			rank += int64(math.Floor(qLower*g + 1e-9))
		}
		at[j] = min(max(int(rank)-1, 0), m-1)
	}
	return at, nil
}

// SelectPivotsWeighted generalizes pivot selection to a perf vector: the
// j-th pivot sits at the cumulative-performance quantile
// (perf[0]+...+perf[j]) / Σperf of the sorted candidates, so that
// partition j holds ≈ perf[j]/Σperf of the data — processor j's optimal
// share.  With an all-ones vector this is exactly homogeneous PSRS pivot
// selection.  Degenerate inputs (near-empty data) have no candidates:
// any pivots are correct, if unbalanced, and zeros route everything to
// the last node.
func SelectPivotsWeighted(candidates []record.Key, v perf.Vector) ([]record.Key, error) {
	at, err := WeightedPivotRanks(len(candidates), v)
	if err != nil || len(v) == 1 {
		return nil, err
	}
	sorted := append([]record.Key(nil), candidates...)
	slices.Sort(sorted)
	pivots := make([]record.Key, len(v)-1)
	for j, i := range at {
		pivots[j] = sorted[i]
	}
	return pivots, nil
}

// WeightedPivotRanks returns where SelectPivotsWeighted's pivots sit in
// the sorted multiset of m candidates (nil when m is 0).
func WeightedPivotRanks(m int, v perf.Vector) ([]int, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	p := len(v)
	if p == 1 || m == 0 {
		return nil, nil
	}
	sum := v.Sum()
	at := make([]int, p-1)
	var cum int64
	for j := range at {
		cum += int64(v[j])
		// With the regular-sampling scheme, node i contributes
		// p*perf[i]-1 candidates at equal global gaps of s keys, so
		// candidate rank r sits near global rank (r+1)*s and the total
		// satisfies T+p = n/s.  The pivot for cumulative share cum/Σ
		// therefore sits at rank cum*(T+p)/Σ - 1.
		at[j] = min(max(int(cum*int64(m+p)/sum)-1, 0), m-1)
	}
	return at, nil
}

// RandomSampleIndices returns count distinct random positions in [0,n),
// sorted ascending — the Li–Sevcik alternative to regular positions.
func RandomSampleIndices(n int64, count int, seed int64) []int64 {
	if n <= 0 || count <= 0 {
		return nil
	}
	if int64(count) > n {
		count = int(n)
	}
	r := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, count)
	out := make([]int64, 0, count)
	for len(out) < count {
		i := r.Int63n(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	slices.Sort(out)
	return out
}

// WeightedExpansion generalizes sublist expansion to heterogeneous
// clusters: each node's final partition is compared to its *optimal*
// share total*perf[i]/Σperf, and the worst ratio is returned (the
// paper's S(max) column for the {1,1,4,4} rows compares the fast nodes'
// partitions to their optimum 6710888).
func WeightedExpansion(sizes []int64, v perf.Vector) (float64, error) {
	if len(sizes) != len(v) {
		return 0, errors.New("sampling: sizes and perf vector length mismatch")
	}
	if err := v.Validate(); err != nil {
		return 0, err
	}
	var total int64
	for _, s := range sizes {
		total += s
	}
	if total == 0 {
		return 0, nil
	}
	sum := float64(v.Sum())
	worst := 0.0
	for i, s := range sizes {
		opt := float64(total) * float64(v[i]) / sum
		if r := float64(s) / opt; r > worst {
			worst = r
		}
	}
	return worst, nil
}
