package sampling

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hetsort/internal/perf"
	"hetsort/internal/record"
)

func TestRegularSampleIndices(t *testing.T) {
	// n=12, spacing=4 -> indices 3, 7 (11 would leave no full gap after).
	got := RegularSampleIndices(12, 4)
	want := []int64{3, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestRegularSampleIndicesEdge(t *testing.T) {
	if RegularSampleIndices(0, 4) != nil {
		t.Error("n=0")
	}
	if RegularSampleIndices(10, 0) != nil {
		t.Error("spacing=0")
	}
	if got := RegularSampleIndices(4, 4); got != nil {
		t.Errorf("single gap should give no samples, got %v", got)
	}
}

func TestRegularSampleIndicesEqualGaps(t *testing.T) {
	// The defining property: equal element counts between consecutive
	// samples (and before the first).
	f := func(nRaw uint16, sRaw uint8) bool {
		n := int64(nRaw%10000) + 1
		spacing := int64(sRaw%100) + 1
		idx := RegularSampleIndices(n, spacing)
		prev := int64(-1)
		for _, i := range idx {
			if i-prev != spacing {
				return false
			}
			if i >= n {
				return false
			}
			prev = i
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRegularPositions: m−1 positions whose gaps differ by at most one
// key, today's fseek positions where m divides n, and every key of a
// portion of at most m keys.
func TestRegularPositions(t *testing.T) {
	f := func(nRaw uint16, mRaw uint8) bool {
		n, m := int64(nRaw%5000)+1, int64(mRaw%64)+2
		at := RegularPositions(n, m)
		if n <= m {
			return slices.Equal(at, RegularSampleIndices(n, 1))
		}
		if n%m == 0 && !slices.Equal(at, RegularSampleIndices(n, n/m)) || int64(len(at)) != m-1 {
			return false
		}
		prev := int64(-1)
		for _, i := range append(at, n-1) {
			if gap := i - prev; gap != n/m && gap != (n+m-1)/m {
				return false
			}
			prev = i
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if got := RegularPositions(23, 4); !slices.Equal(got, []int64{5, 11, 17}) {
		t.Fatalf("RegularPositions(23, 4) = %v, want [5 11 17]", got)
	}
}

func TestHeteroSpacingEqualAcrossNodes(t *testing.T) {
	// perf={1,1,4,4}, n=16777220: every node's spacing must equal
	// unit/p = 1677722/4 rounded the same way.
	v := perf.Vector{1, 1, 4, 4}
	shares := v.Shares(16777220)
	spacings := make([]int64, len(v))
	for i := range v {
		s, count, err := HeteroSpacing(i, shares[i], v[i], len(v))
		if err != nil {
			t.Fatal(err)
		}
		spacings[i] = s
		wantCount := v[i]*len(v) - 1
		if count != wantCount {
			t.Errorf("node %d: %d samples, want %d", i, count, wantCount)
		}
	}
	for i := 1; i < len(spacings); i++ {
		if spacings[i] != spacings[0] {
			t.Fatalf("spacings differ across nodes: %v", spacings)
		}
	}
}

func TestHeteroSpacingErrors(t *testing.T) {
	if _, _, err := HeteroSpacing(0, 10, 0, 4); err == nil {
		t.Error("perf=0 accepted")
	}
	if _, _, err := HeteroSpacing(0, 3, 1, 4); err == nil {
		t.Error("tiny portion accepted")
	}
}

func TestSpacingErrorStructured(t *testing.T) {
	// The large-p × small-portion regime: the error must be a typed
	// *SpacingError naming node, portion, perf and p, so callers can
	// both branch on it and report it usefully.
	_, _, err := HeteroSpacing(937, 500, 2, 1024)
	if err == nil {
		t.Fatal("500-key portion accepted at p=1024")
	}
	var se *SpacingError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *SpacingError", err)
	}
	if se.Node != 937 || se.Portion != 500 || se.Perf != 2 || se.P != 1024 {
		t.Fatalf("fields %+v do not round-trip the call site", se)
	}
	for _, want := range []string{"node 937", "portion 500", "2*1024"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestRegularSamplesValues(t *testing.T) {
	sorted := []record.Key{0, 10, 20, 30, 40, 50, 60, 70}
	got := RegularSamples(sorted, 3)
	// indices 2, 5 -> 20, 50 (8-3-... idx 2 then 5; next would be 8, out)
	if len(got) != 2 || got[0] != 20 || got[1] != 50 {
		t.Fatalf("samples=%v", got)
	}
}

func TestSelectPivots(t *testing.T) {
	cands := []record.Key{90, 10, 50, 30, 70, 20, 80, 40, 60, 100, 0, 55}
	pv, err := SelectPivotsWeighted(cands, perf.Homogeneous(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(pv) != 3 {
		t.Fatalf("pivots=%v", pv)
	}
	if !slices.IsSorted(pv) {
		t.Fatal("pivots must come out sorted")
	}
	// With T=12 candidates from p=4 (each node contributing p-1=3 at
	// equal gaps), pivot j sits at rank j*(T+p)/p - 1: indices 3, 7, 11.
	sorted := append([]record.Key(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for j, want := range []record.Key{sorted[3], sorted[7], sorted[11]} {
		if pv[j] != want {
			t.Fatalf("pivot %d=%d want %d", j, pv[j], want)
		}
	}
}

func TestSelectPivotsEdge(t *testing.T) {
	if pv, err := SelectPivotsWeighted([]record.Key{1}, perf.Homogeneous(1)); err != nil || pv != nil {
		t.Error("p=1 should give no pivots")
	}
	// Fewer candidates than pivots degrades gracefully (repeated picks).
	if pv, err := SelectPivotsWeighted([]record.Key{7}, perf.Homogeneous(3)); err != nil || len(pv) != 2 {
		t.Errorf("tiny candidate set: %v, %v", pv, err)
	}
	// No candidates at all: zero pivots route everything to the last node.
	if pv, err := SelectPivotsWeighted(nil, perf.Homogeneous(3)); err != nil || len(pv) != 2 || pv[0] != 0 {
		t.Errorf("empty candidate set: %v, %v", pv, err)
	}
	if _, err := SelectPivotsWeighted(nil, perf.Homogeneous(0)); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestSelectPivotsDoesNotMutateInput(t *testing.T) {
	cands := []record.Key{3, 1, 2}
	if _, err := SelectPivotsWeighted(cands, perf.Homogeneous(2)); err != nil {
		t.Fatal(err)
	}
	if cands[0] != 3 || cands[1] != 1 || cands[2] != 2 {
		t.Fatal("candidates were mutated")
	}
}

func TestRandomSampleIndices(t *testing.T) {
	idx := RandomSampleIndices(1000, 50, 7)
	if len(idx) != 50 {
		t.Fatalf("count=%d", len(idx))
	}
	seen := map[int64]bool{}
	for i, v := range idx {
		if v < 0 || v >= 1000 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatal("duplicate index")
		}
		seen[v] = true
		if i > 0 && idx[i-1] > v {
			t.Fatal("indices not sorted")
		}
	}
	// Deterministic for a seed.
	idx2 := RandomSampleIndices(1000, 50, 7)
	for i := range idx {
		if idx[i] != idx2[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestRandomSampleIndicesClamp(t *testing.T) {
	if got := RandomSampleIndices(3, 10, 1); len(got) != 3 {
		t.Fatalf("should clamp to n, got %d", len(got))
	}
	if RandomSampleIndices(0, 5, 1) != nil || RandomSampleIndices(5, 0, 1) != nil {
		t.Fatal("degenerate inputs")
	}
}

func TestWeightedExpansion(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	// Perfectly proportional loads -> 1.0.
	got, err := WeightedExpansion([]int64{100, 100, 400, 400}, v)
	if err != nil || got != 1.0 {
		t.Fatalf("got %v, %v", got, err)
	}
	// A fast node with double its share -> 2.0.
	got, err = WeightedExpansion([]int64{100, 100, 800, 0}, v)
	if err != nil || got != 2.0 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := WeightedExpansion([]int64{1}, v); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestSelectPivotsRegularHomogeneousMatchesWeighted(t *testing.T) {
	// On homogeneous vectors (targets on-grid) the two rank rules agree.
	v := perf.Homogeneous(4)
	a, err := RegularPivotRanks(12, v)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WeightedPivotRanks(12, v)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("regular %v != weighted %v", a, b)
	}
}

func TestSelectPivotsRegularFastBias(t *testing.T) {
	// {1,1,4,4}: the target quantile 0.1 is off-grid; the regular
	// rule must choose the lower grid point 1/16 (candidate rank 2,
	// 0-based index 1), under-filling the slow nodes like the paper.
	v := perf.Vector{1, 1, 4, 4}
	// Synthesise the exact regular-sampling candidate multiset over a
	// uniform [0, 160) key space: node grids 1/4 (x2) and 1/16 (x2).
	var cands []record.Key
	for _, pf := range v {
		g := 4 * pf
		for k := 1; k < g; k++ {
			cands = append(cands, record.Key(k*160/g))
		}
	}
	slices.Sort(cands)
	at, err := RegularPivotRanks(len(cands), v)
	if err != nil {
		t.Fatal(err)
	}
	// q*=0.1 -> lower grid 1/16 -> key 10; q*=0.2 -> 3/16 -> key 30;
	// q*=0.6 -> 9/16 -> key 90.
	want := []record.Key{10, 30, 90}
	for i := range want {
		if cands[at[i]] != want[i] {
			t.Fatalf("pivot ranks %v pick %d, want %v", at, cands[at[i]], want)
		}
	}
}

func TestSelectPivotsRegularDegenerate(t *testing.T) {
	if at, err := RegularPivotRanks(0, perf.Vector{1, 2}); err != nil || at != nil {
		t.Fatalf("empty candidates: %v %v", at, err)
	}
	if _, err := RegularPivotRanks(1, perf.Vector{0}); err == nil {
		t.Fatal("invalid vector accepted")
	}
	if at, err := RegularPivotRanks(1, perf.Vector{3}); err != nil || at != nil {
		t.Fatalf("p=1: %v %v", at, err)
	}
}
