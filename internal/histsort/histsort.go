// Package histsort implements the splitter refinement at the heart of
// Histogram Sort with Sampling (Harsh, Kale & Solomonik, SPAA 2019):
// instead of one-shot regular sampling, the root keeps a bracketing
// interval around every pivot's target global rank and iteratively
// proposes candidate splitters, narrowing each interval with the exact
// global histogram the cluster reports back, until every pivot's cut is
// within a tolerance of its heterogeneous perf-share target.
//
// A pivot is a cut position, not a key: under the total order (key,
// node, offset) a cut may fall inside a run of equal keys, the copies
// below it taken in node order.  A candidate's histogram entry carries,
// beside its global rank, the nearest keys that exist on either side of
// it, so a bracket's endpoints snap to the data: once a bracket holds a
// single key, that key's copies straddle the target and the cut
// apportions them exactly — a duplicate plateau costs no more rounds
// than a distinct key does.
//
// Convergence is deterministic even on hostile inputs: a candidate is
// normally placed by rank interpolation (fast on smooth regions), but
// whenever an interval fails to halve between two consecutive proposals
// the refiner falls back to a ladder of three candidates — the midpoint
// and the points √width above the low end and below the high end — so
// every interval's key-space width at least halves every two rounds, and
// a mass piled against either end (a Zipf head) is reached by square
// roots of the width rather than halvings.  The refinement finishes in
// at most 2·log2(keyspace) ≈ 64 rounds regardless of the distribution.
package histsort

import (
	"fmt"
	"math"
	"slices"

	"hetsort/internal/record"
)

// maxKey is the top of the 32-bit key space.
const maxKey = int64(^record.Key(0))

// DefaultMaxRounds caps the refinement loop.  Midpoint fallback halves
// every interval's width at least every second round, so 2·32 rounds
// always suffice for the 32-bit key space; the few extra rounds are
// slack for the interpolation steps that precede a fallback.
const DefaultMaxRounds = 72

// Config parameterises a refinement.
type Config struct {
	// Targets are the wanted global ranks of the p-1 pivots, in
	// non-decreasing order: Targets[j] is the number of keys that
	// should land below cut j (the cumulative perf shares).
	Targets []int64
	// Total is the global key count.
	Total int64
	// Tolerance is the acceptable |rank - target| slack in keys
	// (minimum 1: ranks are integers).
	Tolerance int64
	// MaxRounds caps the loop (0 = DefaultMaxRounds).
	MaxRounds int
}

// Count is one candidate's global histogram entry: N keys are ≤ the
// candidate, Pred is the largest of them and Succ the smallest key
// above it.  Pred means nothing when N is 0, nor Succ when N is the
// total, so a node with no such key reports the neutral 0 and maxKey.
type Count struct {
	N          int64
	Pred, Succ record.Key
}

// Cut is a refined pivot: a position in the total order (key, node,
// offset).  Rank keys lie below it: every key < Key and, when Take ≥ 0,
// the first Take copies of Key counted in node order; Take < 0 means
// all of Key's copies, the key cut a splitter makes.
type Cut struct {
	Key  record.Key
	Rank int64
	Take int64
}

// Tied reports whether the cut splits its key's copies.
func (c Cut) Tied() bool { return c.Take >= 0 }

// bracket tracks one pivot's search state: the invariant is
// rank(lo) = loRank < target ≤ hiRank = rank(hi), with lo = -1 playing
// -∞ (rank 0).  Candidates are drawn from the open key interval
// (lo, hi); lo+1 and hi are existing keys once a candidate has snapped
// them, so hi-lo = 1 means one key is left.
type bracket struct {
	lo, hi         int64 // key-space endpoints; lo = -1 means -∞
	loRank, hiRank int64
	target         int64
	prevWidth      int64   // width at the previous proposal (0 = none yet)
	prevSpan       int64   // hiRank − loRank at the previous proposal
	stuck          int     // +k: the interpolation point moved lo in the last k rounds, -k: hi
	interp         int64   // this round's interpolation point
	proposals      []int64 // candidates in flight, ascending
	resolved       bool
	cut            Cut
}

// Refiner runs the root side of the histogram protocol: call
// Candidates, count the returned splitters over the global data, and
// feed the aggregated histogram to Observe; repeat until Done.
type Refiner struct {
	brackets []bracket
	tol      int64
	maxR     int
	rounds   int
}

// NewRefiner validates cfg and builds the initial brackets.  With no
// targets (p = 1) or an empty input the refinement is immediately done
// and the pivots are trivial; a zero target is the cut before every key.
func NewRefiner(cfg Config) (*Refiner, error) {
	if cfg.Total < 0 {
		return nil, fmt.Errorf("histsort: negative total %d", cfg.Total)
	}
	tol := cfg.Tolerance
	if tol < 1 {
		tol = 1
	}
	maxR := cfg.MaxRounds
	if maxR <= 0 {
		maxR = DefaultMaxRounds
	}
	r := &Refiner{tol: tol, maxR: maxR}
	prev := int64(0)
	for j, t := range cfg.Targets {
		if t < 0 || t > cfg.Total {
			return nil, fmt.Errorf("histsort: target[%d]=%d outside [0,%d]", j, t, cfg.Total)
		}
		if t < prev {
			return nil, fmt.Errorf("histsort: target[%d]=%d decreases below %d", j, t, prev)
		}
		prev = t
		b := bracket{lo: -1, hi: maxKey, loRank: 0, hiRank: cfg.Total, target: t}
		switch {
		case cfg.Total == 0: // no keys: every pivot is trivially exact
			b.resolve(Cut{Take: -1})
		case t == 0: // none of key 0's copies, the least key there is
			b.resolve(Cut{})
		}
		r.brackets = append(r.brackets, b)
	}
	return r, nil
}

func (b *bracket) resolve(c Cut) { b.resolved, b.cut = true, c }

// Done reports whether every pivot is resolved.
func (r *Refiner) Done() bool {
	for i := range r.brackets {
		if !r.brackets[i].resolved {
			return false
		}
	}
	return true
}

// Candidates returns the next round's candidate splitters, sorted and
// deduplicated (several brackets may propose the same key), or nil when
// the refinement is done.
func (r *Refiner) Candidates() []record.Key {
	if r.Done() {
		return nil
	}
	if r.rounds >= r.maxR {
		// Safety valve: accept the nearer endpoint everywhere.  The
		// midpoint fallback makes this unreachable in practice.
		for i := range r.brackets {
			if !r.brackets[i].resolved {
				r.brackets[i].collapse()
			}
		}
		return nil
	}
	var cands []record.Key
	seen := make(map[record.Key]bool)
	for i := range r.brackets {
		b := &r.brackets[i]
		if b.resolved {
			continue
		}
		if b.hi-b.lo <= 1 {
			b.settle(r.tol)
			continue
		}
		b.proposals = b.propose()
		for _, c := range b.proposals {
			if k := record.Key(c); !seen[k] {
				seen[k] = true
				cands = append(cands, k)
			}
		}
	}
	if len(cands) == 0 {
		return nil // every unresolved bracket settled this round
	}
	slices.Sort(cands)
	return cands
}

// propose picks the bracket's next candidates in (lo, hi): the rank
// interpolation point and, when the interval failed to halve in key
// width or in rank span since the previous proposal, the ladder
// lo+√width, midpoint, hi−√width beside it.
func (b *bracket) propose() []int64 {
	width, span := b.hi-b.lo, b.hiRank-b.loRank
	stalled := b.prevWidth > 0 && (2*width > b.prevWidth || 2*span > b.prevSpan)
	b.prevWidth, b.prevSpan = width, span
	// Illinois: an end that has stood still for k rounds counts 2^(k-1)
	// times less, so interpolation stops creeping toward it.
	below, above := float64(b.target-b.loRank), float64(b.hiRank-b.target)
	if b.stuck > 1 {
		above = math.Ldexp(above, 1-b.stuck)
	} else if b.stuck < -1 {
		below = math.Ldexp(below, 1+b.stuck)
	}
	b.interp = min(max(b.lo+1+int64(float64(width-1)*below/(below+above)), b.lo+1), b.hi-1)
	out := []int64{b.interp}
	if stalled {
		root := max(int64(math.Sqrt(float64(width))), 1)
		for _, c := range []int64{b.lo + root, b.lo + width/2, b.hi - root} {
			out = append(out, min(max(c, b.lo+1), b.hi-1))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// settle resolves a bracket left with the one key hi, whose copies
// occupy ranks (loRank, hiRank] and so straddle the target.  A key cut
// at either end serves when it is within the tolerance; otherwise the
// cut takes exactly target − loRank of the copies.
func (b *bracket) settle(tol int64) {
	switch {
	case b.hiRank-b.target <= tol:
		b.resolve(Cut{Key: record.Key(b.hi), Rank: b.hiRank, Take: -1})
	case b.lo >= 0 && b.target-b.loRank <= tol:
		b.resolve(Cut{Key: record.Key(b.lo), Rank: b.loRank, Take: -1})
	default:
		b.resolve(Cut{Key: record.Key(b.hi), Rank: b.target, Take: b.target - b.loRank})
	}
}

// collapse resolves a bracket whose round budget ran out to the
// endpoint with the nearer rank; the lo = -1 endpoint is the cut before
// every copy of key 0.
func (b *bracket) collapse() {
	switch {
	case b.target-b.loRank > b.hiRank-b.target:
		b.resolve(Cut{Key: record.Key(b.hi), Rank: b.hiRank, Take: -1})
	case b.lo >= 0:
		b.resolve(Cut{Key: record.Key(b.lo), Rank: b.loRank, Take: -1})
	default:
		b.resolve(Cut{})
	}
}

// Observe completes a round: counts[j] must be the global histogram
// entry of cands[j] — over the whole input, the number of keys ≤
// cands[j] and the nearest keys on either side — for the exact slice the
// preceding Candidates call returned.  A bracket's endpoints snap to
// those nearest keys: no key lies strictly between a candidate and them.
func (r *Refiner) Observe(cands []record.Key, counts []Count) error {
	if len(cands) != len(counts) {
		return fmt.Errorf("histsort: %d counts for %d candidates", len(counts), len(cands))
	}
	count := make(map[record.Key]Count, len(cands))
	for j, c := range cands {
		count[c] = counts[j]
	}
	r.rounds++
	for i := range r.brackets {
		b := &r.brackets[i]
		for _, c := range b.proposals {
			if b.resolved {
				break
			}
			h, ok := count[record.Key(c)]
			if !ok {
				return fmt.Errorf("histsort: no count reported for candidate %d", c)
			}
			switch {
			case abs64(h.N-b.target) <= r.tol:
				b.resolve(Cut{Key: record.Key(c), Rank: h.N, Take: -1})
			case h.N < b.target:
				if lo := int64(h.Succ) - 1; lo > b.lo {
					b.lo, b.loRank = lo, h.N
				}
			case int64(h.Pred) < b.hi:
				b.hi, b.hiRank = int64(h.Pred), h.N
			}
			if c == b.interp && !b.resolved {
				if h.N < b.target {
					b.stuck = max(b.stuck, 0) + 1
				} else {
					b.stuck = min(b.stuck, 0) - 1
				}
			}
		}
		b.proposals = nil
	}
	return nil
}

// Pivots returns the refined cuts, forced non-decreasing in (Rank, Key):
// within the tolerance two adjacent brackets can resolve in crossed
// order, and the partitioner requires monotone cuts.  Raising a cut to
// its predecessor never grows a partition beyond what the two cuts
// around it allowed.  Valid only once Done.
func (r *Refiner) Pivots() []Cut {
	out := make([]Cut, len(r.brackets))
	for i := range r.brackets {
		out[i] = r.brackets[i].cut
		if i > 0 {
			if prev := out[i-1]; out[i].Rank < prev.Rank || (out[i].Rank == prev.Rank && out[i].Key < prev.Key) {
				out[i] = prev
			}
		}
	}
	return out
}

// EncodeCounts packs int64 counters into key pairs (hi word, lo word)
// so count vectors ride the cluster's record.Key collectives.
func EncodeCounts(vals []int64) []record.Key {
	out := make([]record.Key, 0, 2*len(vals))
	for _, v := range vals {
		out = append(out, record.Key(uint64(v)>>32), record.Key(uint64(v)))
	}
	return out
}

// DecodeCounts unpacks EncodeCounts' pairs.
func DecodeCounts(enc []record.Key) []int64 {
	out := make([]int64, 0, len(enc)/2)
	for i := 0; i+1 < len(enc); i += 2 {
		out = append(out, int64(uint64(enc[i])<<32|uint64(enc[i+1])))
	}
	return out
}

// EncodeHistogram packs histogram entries into four keys each: N as a
// count pair, then Pred and Succ.
func EncodeHistogram(h []Count) []record.Key {
	out := make([]record.Key, 0, 4*len(h))
	for _, c := range h {
		out = append(out, record.Key(uint64(c.N)>>32), record.Key(uint64(c.N)), c.Pred, c.Succ)
	}
	return out
}

// DecodeHistogram unpacks EncodeHistogram's entries.
func DecodeHistogram(enc []record.Key) []Count {
	out := make([]Count, 0, len(enc)/4)
	for i := 0; i+3 < len(enc); i += 4 {
		out = append(out, Count{N: int64(uint64(enc[i])<<32 | uint64(enc[i+1])), Pred: enc[i+2], Succ: enc[i+3]})
	}
	return out
}

// AddHistograms combines two encoded histograms entry by entry: the
// counts add, Pred takes the larger and Succ the smaller key — exact
// and associative and commutative, so tree and flat aggregations agree
// byte for byte.
func AddHistograms(acc, child []record.Key) []record.Key {
	a, b := DecodeHistogram(acc), DecodeHistogram(child)
	if len(b) > len(a) {
		a, b = b, a
	}
	for i, c := range b {
		a[i] = Count{N: a[i].N + c.N, Pred: max(a[i].Pred, c.Pred), Succ: min(a[i].Succ, c.Succ)}
	}
	return EncodeHistogram(a)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
