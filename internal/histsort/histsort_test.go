package histsort

import (
	"math/rand"
	"sort"
	"testing"

	"hetsort/internal/record"
)

// drive runs the full protocol against an in-memory sorted key slice,
// returning the cuts and the round count.
func drive(t *testing.T, keys []record.Key, targets []int64, tol int64) ([]Cut, int) {
	t.Helper()
	r, err := NewRefiner(Config{Targets: targets, Total: int64(len(keys)), Tolerance: tol})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for cands := r.Candidates(); cands != nil; cands = r.Candidates() {
		if err := r.Observe(cands, histogram(keys, cands)); err != nil {
			t.Fatal(err)
		}
		rounds++
	}
	if !r.Done() {
		t.Fatal("refiner stopped issuing candidates while not done")
	}
	return r.Pivots(), rounds
}

// histogram is what the cluster reports for cands over sorted keys.
func histogram(keys []record.Key, cands []record.Key) []Count {
	out := make([]Count, len(cands))
	for j, c := range cands {
		n := rank(keys, c)
		out[j] = Count{N: n, Succ: record.Key(maxKey)}
		if n > 0 {
			out[j].Pred = keys[n-1]
		}
		if n < int64(len(keys)) {
			out[j].Succ = keys[n]
		}
	}
	return out
}

// rank returns |{k in keys : k <= c}|.
func rank(keys []record.Key, c record.Key) int64 {
	return int64(sort.Search(len(keys), func(i int) bool { return keys[i] > c }))
}

// below returns |{k in keys : k < c}|.
func below(keys []record.Key, c record.Key) int64 {
	return int64(sort.Search(len(keys), func(i int) bool { return keys[i] >= c }))
}

// checkBound asserts every cut is a consistent position — Rank keys
// below it, of which Take copies of its key (all when Take < 0) — within
// the tolerance of its target: no multiplicity term.
func checkBound(t *testing.T, keys []record.Key, targets []int64, cuts []Cut, tol int64) {
	t.Helper()
	for j, c := range cuts {
		lt, le := below(keys, c.Key), rank(keys, c.Key)
		want := le
		if c.Tied() {
			want = lt + c.Take
		}
		if c.Rank != want || c.Rank < lt || c.Rank > le {
			t.Fatalf("cut %d %+v is not a position of key %d (copies at ranks (%d, %d])", j, c, c.Key, lt, le)
		}
		if d := c.Rank - targets[j]; d > tol || d < -tol {
			t.Fatalf("cut %d rank %d misses target %d by %d (tol %d)", j, c.Rank, targets[j], d, tol)
		}
	}
}

func uniformKeys(n int, seed int64) []record.Key {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]record.Key, n)
	for i := range keys {
		keys[i] = record.Key(rng.Uint32())
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

func evenTargets(n int64, p int) []int64 {
	out := make([]int64, p-1)
	for j := range out {
		out[j] = n * int64(j+1) / int64(p)
	}
	return out
}

func TestUniformConverges(t *testing.T) {
	keys := uniformKeys(100000, 1)
	targets := evenTargets(int64(len(keys)), 16)
	cuts, rounds := drive(t, keys, targets, 100)
	checkBound(t, keys, targets, cuts, 100)
	if rounds == 0 || rounds > DefaultMaxRounds {
		t.Fatalf("rounds = %d", rounds)
	}
	// Interpolation should land fast on a smooth distribution.
	if rounds > 12 {
		t.Fatalf("uniform input took %d rounds; interpolation is not working", rounds)
	}
}

func TestHeterogeneousTargets(t *testing.T) {
	keys := uniformKeys(60000, 2)
	// Perf {1,1,4,4}: cumulative shares 1/10, 2/10, 6/10.
	n := int64(len(keys))
	targets := []int64{n / 10, 2 * n / 10, 6 * n / 10}
	cuts, _ := drive(t, keys, targets, 50)
	checkBound(t, keys, targets, cuts, 50)
}

func TestAllDuplicatesCollapses(t *testing.T) {
	keys := make([]record.Key, 5000)
	for i := range keys {
		keys[i] = 42
	}
	targets := evenTargets(5000, 8)
	cuts, rounds := drive(t, keys, targets, 1)
	if rounds > 2 {
		t.Fatalf("rounds = %d: one snap per side is all a single key needs", rounds)
	}
	// The single key's rank jumps from 0 to 5000, so every cut splits
	// its copies exactly at the target.
	checkBound(t, keys, targets, cuts, 0)
	for j, c := range cuts {
		if c.Key != 42 || c.Take != targets[j] {
			t.Fatalf("cut %d = %+v; want %d copies of 42", j, c, targets[j])
		}
	}
}

// TestOneKeyPlateauResolvesInOneRound: once a bracket's upper end has
// snapped onto a plateau key whose copies straddle the target, the next
// round snaps the lower end next to it and the bracket settles — it no
// longer halves key space around the plateau.
func TestOneKeyPlateauResolvesInOneRound(t *testing.T) {
	var keys []record.Key
	for _, run := range []struct {
		key record.Key
		n   int
	}{{7, 1000}, {1 << 20, 3000}, {1 << 30, 1000}} {
		for i := 0; i < run.n; i++ {
			keys = append(keys, run.key)
		}
	}
	r, err := NewRefiner(Config{Targets: []int64{2500}, Total: int64(len(keys)), Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	landed, rounds := -1, 0
	for cands := r.Candidates(); cands != nil; cands = r.Candidates() {
		if err := r.Observe(cands, histogram(keys, cands)); err != nil {
			t.Fatal(err)
		}
		rounds++
		if b := r.brackets[0]; landed < 0 && b.hi == 1<<20 {
			landed = rounds
		}
	}
	// Interpolation lands on the plateau in round 2: each candidate's
	// nearest keys snap hi from 2^31 to 2^30, then to 2^20.
	if landed < 0 || landed > 2 || rounds > landed+1 {
		t.Fatalf("landed on the plateau in round %d, settled after round %d", landed, rounds)
	}
	if got := r.Pivots()[0]; got != (Cut{Key: 1 << 20, Rank: 2500, Take: 1500}) {
		t.Fatalf("cut %+v; want 1500 of the plateau's 3000 copies", got)
	}
}

func TestDuplicatePlateauBound(t *testing.T) {
	// Half the mass on one key, the rest uniform: the plateau's cuts
	// split it, so every cut is as tight as on distinct keys.
	keys := uniformKeys(20000, 3)
	for i := 0; i < 20000; i++ {
		keys = append(keys, 1<<30)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	targets := evenTargets(int64(len(keys)), 16)
	cuts, _ := drive(t, keys, targets, 40)
	checkBound(t, keys, targets, cuts, 40)
}

func TestEmptyInput(t *testing.T) {
	r, err := NewRefiner(Config{Targets: []int64{0, 0, 0}, Total: 0, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done() || r.Candidates() != nil {
		t.Fatal("empty input should resolve in zero rounds")
	}
	for _, c := range r.Pivots() {
		if c != (Cut{Take: -1}) {
			t.Fatalf("empty-input cut %+v", c)
		}
	}
}

func TestSingleNode(t *testing.T) {
	r, err := NewRefiner(Config{Targets: nil, Total: 100, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Done() || len(r.Pivots()) != 0 {
		t.Fatal("p=1 should need no refinement")
	}
}

func TestPivotsMonotone(t *testing.T) {
	keys := make([]record.Key, 0, 30000)
	rng := rand.New(rand.NewSource(7))
	// Staircase-ish: a few fat plateaus whose brackets settle by key
	// cut and by tie can cross within tolerance.
	for i := 0; i < 30000; i++ {
		keys = append(keys, record.Key(rng.Intn(4)*1000))
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	targets := evenTargets(int64(len(keys)), 64)
	cuts, _ := drive(t, keys, targets, 5)
	for j := 1; j < len(cuts); j++ {
		if cuts[j].Rank < cuts[j-1].Rank || cuts[j].Key < cuts[j-1].Key {
			t.Fatalf("cuts not monotone at %d: %+v < %+v", j, cuts[j], cuts[j-1])
		}
	}
	checkBound(t, keys, targets, cuts, 5)
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := NewRefiner(Config{Targets: []int64{5}, Total: 3}); err == nil {
		t.Fatal("target beyond total accepted")
	}
	if _, err := NewRefiner(Config{Targets: []int64{3, 1}, Total: 5}); err == nil {
		t.Fatal("decreasing targets accepted")
	}
	if _, err := NewRefiner(Config{Total: -1}); err == nil {
		t.Fatal("negative total accepted")
	}
}

func TestObserveValidation(t *testing.T) {
	r, err := NewRefiner(Config{Targets: []int64{50}, Total: 100, Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	cands := r.Candidates()
	if err := r.Observe(cands, nil); err == nil {
		t.Fatal("mismatched count slice accepted")
	}
	if err := r.Observe([]record.Key{^record.Key(0) - 1}, []Count{{N: 10}}); err == nil {
		t.Fatal("ranks for the wrong candidates accepted")
	}
}

func TestCountCodecRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 1 << 31, 1<<40 + 12345, 1<<62 - 1}
	got := DecodeCounts(EncodeCounts(vals))
	if len(got) != len(vals) {
		t.Fatalf("len %d != %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("vals[%d]: %d != %d", i, got[i], vals[i])
		}
	}
	h := []Count{{N: 1 << 40, Pred: 3, Succ: 9}, {N: 0, Pred: 0, Succ: ^record.Key(0)}}
	if rt := DecodeHistogram(EncodeHistogram(h)); len(rt) != 2 || rt[0] != h[0] || rt[1] != h[1] {
		t.Fatalf("histogram codec round trip = %+v", rt)
	}
	// A node with nothing on a side reports the neutral key there.
	other := []Count{{N: 5, Pred: 0, Succ: ^record.Key(0)}, {N: 2, Pred: 8, Succ: 11}}
	added := DecodeHistogram(AddHistograms(EncodeHistogram(h), EncodeHistogram(other)))
	if added[0] != (Count{N: 1<<40 + 5, Pred: 3, Succ: 9}) || added[1] != (Count{N: 2, Pred: 8, Succ: 11}) {
		t.Fatalf("AddHistograms = %+v", added)
	}
}

// TestWorstCaseRounds drives an adversarial plateau structure and
// asserts the midpoint-fallback round bound holds with tolerance 1.
func TestWorstCaseRounds(t *testing.T) {
	keys := make([]record.Key, 0, 1<<16)
	// Exponentially spaced singleton keys: interpolation overshoots
	// every round until the fallback kicks in.
	for i := 0; i < 31; i++ {
		for j := 0; j < 1<<11; j++ {
			keys = append(keys, record.Key(1)<<i)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	targets := evenTargets(int64(len(keys)), 32)
	_, rounds := drive(t, keys, targets, 1)
	if rounds > DefaultMaxRounds {
		t.Fatalf("refinement needed %d rounds (cap %d)", rounds, DefaultMaxRounds)
	}
}
