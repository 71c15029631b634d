package extsort

import (
	"fmt"
	"slices"
	"sort"

	"hetsort/internal/checkpoint"
	"hetsort/internal/diskio"
	"hetsort/internal/enum"
	"hetsort/internal/histsort"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
	"hetsort/internal/trace"
)

// Strategy selects how step 2 chooses the partitioning pivots.  The
// paper's Algorithm 1 uses heterogeneous regular sampling; a naive
// random-pivot baseline and iterative histogram refinement are provided
// for the ablation benches.  Every strategy cuts at positions in the
// total order (key, node, offset), so its partitions are the same at
// every radix.
type Strategy int

const (
	// RegularSampling is Algorithm 1's scheme: regularly spaced
	// samples of the sorted files, perf-proportional counts,
	// weighted pivot quantiles.
	RegularSampling Strategy = iota
	// RandomPivots picks the p-1 pivots directly from random samples
	// without the regular-position discipline — the strawman whose
	// poor balance motivates sampling "in a regular way".
	RandomPivots
	// Histogram is iterative splitter refinement (Harsh, Kale &
	// Solomonik's Histogram Sort with Sampling): node 0 broadcasts
	// candidate splitters each round, every node ranks them in its
	// sorted file, the counts reduce up the collective tree, and the
	// candidates narrow until every pivot's global rank is within
	// HistTolerance of its perf-share target — provable balance on
	// adversarial and duplicate-heavy inputs where one-shot sampling
	// degrades, with only O(p) keys shipped per round instead of O(p²)
	// samples (see internal/histsort).
	Histogram
)

var strategyNames = enum.Table[Strategy]{Kind: "pivot strategy",
	Names: []string{"regular-sampling", "random-pivots", "histogram"}}

func (s Strategy) String() string                { return strategyNames.Name(s) }
func (s Strategy) MarshalText() ([]byte, error)  { return strategyNames.Marshal(s) }
func (s *Strategy) UnmarshalText(b []byte) error { return strategyNames.Unmarshal(s, b) }

// pivotSelector is a pivot strategy's part of step 2.  Step 2 has one
// shape, on every topology: rounds of reduce-then-broadcast over the
// run's collective tree.  Every node contributes keys derived from its
// sorted file, the contributions combine pairwise up the tree into node
// 0, node 0 decides, and the decision is broadcast — the next round's
// input, or after the last round the p−1 pivots.  At radix ≥ p the tree
// is Algorithm 1's star, message for message.
//
// combine is charged by one rule at every radix: concatenating key
// samples is free (decide sorts them anyway, and a sorted pairwise merge
// would cost the radix-p root O(p·S)), adding two count vectors one op
// per counter.
type pivotSelector struct {
	// oneShot strategies run one reduce-then-broadcast round.  The others
	// iterate until node 0 broadcasts nothing, and node 0 then broadcasts
	// what decide returns for the empty reduction.
	oneShot bool
	// contribute returns what this node sends up in the given round;
	// down is the previous round's broadcast (nil in round 0).
	contribute func(round int, down []record.Key) ([]record.Key, error)
	combine    func(acc, child []record.Key) ([]record.Key, error)
	// decide runs on node 0 only, on the round's combined contributions.
	decide func(agg []record.Key) ([]record.Key, error)
}

// pivotSelection implements step 2.  When resuming after any node
// committed phase 2, the pivots were already selected and broadcast (the
// collective completed), so every node adopts the manifest copy without
// a re-gather; otherwise all nodes run the strategy's rounds.  The last
// broadcast is the p−1 pivot keys, followed — when some cut must fall
// inside a run of equal keys — by the ties to settle (settleTies).
func (w *worker) pivotSelection() error {
	n := w.n
	if w.plan != nil && w.plan.Pivots != nil {
		n.TraceEvent(trace.Recovery, StepNames[1], "pivots adopted from a peer's manifest")
		return nil
	}
	if n.P() == 1 {
		return nil
	}
	sel, err := w.selector()
	if err != nil {
		return err
	}
	// announce is a round's second half: node 0 decides, everyone learns.
	announce := func(agg []record.Key) (down []record.Key, err error) {
		if n.ID() == 0 {
			if down, err = sel.decide(agg); err != nil {
				return nil, err
			}
		}
		return n.TreeBcast(w.radix, tagPivots, down)
	}
	var down []record.Key
	for round := 0; ; round++ {
		up, err := sel.contribute(round, down)
		if err != nil {
			return fmt.Errorf("strategy %s round %d: %w", w.cfg.Strategy, round, err)
		}
		agg, err := n.TreeReduce(w.radix, tagSamples, up, sel.combine)
		if err != nil {
			return err
		}
		if down, err = announce(agg); err != nil {
			return err
		}
		if len(down) > 0 {
			w.pivotRounds++
		}
		if sel.oneShot {
			break
		}
		if len(down) == 0 {
			// Converged: the pivots follow the empty candidate broadcast.
			if down, err = announce(nil); err != nil {
				return err
			}
			break
		}
	}
	p := n.P()
	w.pivots = down[:p-1]
	if tied := histsort.DecodeCounts(down[p-1:]); len(tied) > 0 {
		return w.settleTies(tied)
	}
	return nil
}

// withTies is a final broadcast: the pivot keys, then the tied pivots as
// (pivot, take) count pairs — take counted over the whole cluster in
// node order, in copies (histogram) or sampled copies (sampling).
func withTies(pivots []record.Key, tied []int64) []record.Key {
	if len(tied) == 0 {
		return pivots
	}
	return append(pivots, histsort.EncodeCounts(tied)...)
}

// settleTies is step 2's last round, run only when some pivot is tied:
// every node reports how many copies of each tied key it holds (in the
// strategy's unit), the counts gather up the tree in node order, and
// node 0 finds the node each tied cut falls on and how many of that
// node's copies lie below it.  The result is w.ties, which step 3 reads
// and the manifests carry.
func (w *worker) settleTies(tied []int64) error {
	n, p := w.n, w.n.P()
	var keys []record.Key // the distinct tied keys, ascending
	for i := 0; i < len(tied); i += 2 {
		if k := w.pivots[tied[i]]; len(keys) == 0 || keys[len(keys)-1] != k {
			keys = append(keys, k)
		}
	}
	mine, err := w.copiesOf(keys)
	if err != nil {
		return err
	}
	agg, err := n.TreeReduce(w.radix, tagSamples, histsort.EncodeCounts(mine), w.concat)
	if err != nil {
		return err
	}
	var down []record.Key
	if n.ID() == 0 {
		counts := histsort.DecodeCounts(agg) // node-major: node i's count of keys[u] is counts[i*len(keys)+u]
		n.ChargeCompute(int64(len(counts)))
		placed := make([]int64, 0, len(tied))
		u := 0
		for i := 0; i < len(tied); i += 2 {
			for keys[u] != w.pivots[tied[i]] {
				u++
			}
			node, take := 0, tied[i+1]
			for ; node < p-1 && take > counts[node*len(keys)+u]; node++ {
				take -= counts[node*len(keys)+u]
			}
			placed = append(placed, int64(node), min(take, counts[node*len(keys)+u]))
		}
		down = histsort.EncodeCounts(placed)
	}
	if down, err = n.TreeBcast(w.radix, tagPivots, down); err != nil {
		return err
	}
	placed := histsort.DecodeCounts(down)
	w.ties = make([]checkpoint.Tie, 0, len(tied)/2)
	for i := 0; i < len(tied); i += 2 {
		w.ties = append(w.ties, checkpoint.Tie{Pivot: int(tied[i]), Node: int(placed[i]), Take: placed[i+1]})
	}
	w.pivotRounds++
	return nil
}

// copiesOf counts this node's copies of each key in the strategy's unit:
// the histogram's from two rank queries a key (block probes or a scan),
// the sampling strategies' among the samples the index kept (no I/O).
func (w *worker) copiesOf(keys []record.Key) ([]int64, error) {
	out := make([]int64, len(keys))
	if w.cfg.Strategy != Histogram {
		x, err := w.sortedIndex()
		if err != nil {
			return nil, err
		}
		for u, k := range keys {
			lo, hi := sampleRun(x.samples, k)
			out[u] = int64(hi - lo)
		}
		return out, nil
	}
	var qs []record.Key // k−1 then k, so rank_≤ − rank_< counts the copies
	for _, k := range keys {
		if k > 0 {
			qs = append(qs, k-1)
		}
		qs = append(qs, k)
	}
	counts, err := w.ranks(qs, w.n.Acct())
	if err != nil {
		return nil, err
	}
	for u, k := range keys {
		var lt int64
		if k > 0 {
			lt, counts = counts[0].N, counts[1:]
		}
		out[u], counts = counts[0].N-lt, counts[1:]
	}
	return out, nil
}

// sampleRun returns the index range [lo, hi) of key k in ascending samples.
func sampleRun(samples []record.Key, k record.Key) (lo, hi int) {
	lo = sort.Search(len(samples), func(i int) bool { return samples[i] >= k })
	hi = sort.Search(len(samples), func(i int) bool { return samples[i] > k })
	return lo, hi
}

// selector builds the configured strategy's selector for this node.
func (w *worker) selector() (pivotSelector, error) {
	switch w.cfg.Strategy {
	case RegularSampling:
		return w.sampled(sampling.RegularPivotRanks), nil
	case RandomPivots:
		return w.sampled(sampling.WeightedPivotRanks), nil
	case Histogram:
		return w.histogram(), nil
	}
	return pivotSelector{}, fmt.Errorf("unknown strategy %d", w.cfg.Strategy)
}

// concat is the combine of key samples and of per-node count vectors;
// addHistograms that of histogram entries (exact 64-bit addition and
// max/min, associative and commutative, so the totals are the same at
// every radix).
func (w *worker) concat(acc, child []record.Key) ([]record.Key, error) {
	return append(acc, child...), nil
}

func (w *worker) addHistograms(acc, child []record.Key) ([]record.Key, error) {
	w.n.ChargeCompute(int64(len(acc)) / 4) // an entry is four keys on the wire
	return histsort.AddHistograms(acc, child), nil
}

// sampled is a one-shot sampling strategy: every node contributes the
// sample its index kept (no I/O), node 0 sorts the lot in core and picks
// the pivots at the ranks rule gives.  The candidates reach node 0 in
// rank order at every radix, and the pickers depend only on the multiset
// anyway.  A pivot whose key occurs more than once in the sample is
// tied: its cut is the sample it was picked as, a position in the total
// order (key, node, offset), the copies of its key in the sample counted
// in node order.  A pivot key seen once keeps the key cut, which already
// meets Theorem 1 (DESIGN.md §13, "Cut positions").
func (w *worker) sampled(rule func(int, perf.Vector) ([]int, error)) pivotSelector {
	return pivotSelector{
		oneShot: true,
		contribute: func(int, []record.Key) ([]record.Key, error) {
			x, err := w.sortedIndex()
			if err != nil {
				return nil, err
			}
			w.sampleKeys += int64(len(x.samples))
			return x.samples, nil
		},
		combine: w.concat,
		decide: func(cands []record.Key) ([]record.Key, error) {
			w.n.ChargeCompute(int64(len(cands)) * 16) // in-core sort of a small sample
			at, err := rule(len(cands), w.cfg.Perf)
			if err != nil {
				return nil, err
			}
			slices.Sort(cands)
			pivots := make([]record.Key, w.n.P()-1) // zeros without candidates
			var tied []int64
			for j, i := range at {
				pivots[j] = cands[i]
				if lo, hi := sampleRun(cands, cands[i]); hi-lo > 1 {
					tied = append(tied, int64(j), int64(i-lo+1))
				}
			}
			return withTies(pivots, tied), nil
		},
	}
}

// histogram is the Histogram strategy: iterative splitter refinement
// (Histogram Sort with Sampling).  Round 0 agrees on the global key
// count so node 0 can set the rank targets of its histsort.Refiner; in
// every later round node 0's candidate splitters come down, every node
// answers each with its histogram entry (ranks: block probes or one
// scan), the entries combine up the tree, and the refinement narrows
// until every cut is within the tolerance of its heterogeneous
// perf-share target — or, on a run of equal keys, exactly on it, tied.
// Per-link traffic is O(p) encoded entries per round and no node's
// fan-in exceeds the radix, so the strategy holds up at p=1024 where a
// flat sample gather's O(p²) keys collapse.
func (w *worker) histogram() pivotSelector {
	cfg, p := w.cfg, w.n.P()
	var ref *histsort.Refiner // node 0 only
	var cands []record.Key
	return pivotSelector{
		contribute: func(round int, down []record.Key) ([]record.Key, error) {
			if round == 0 {
				li, err := diskio.CountKeys(w.n.FS(), sortedName)
				return histsort.EncodeHistogram([]histsort.Count{{N: li, Succ: noKey}}), err
			}
			counts, err := w.ranks(down, w.n.Acct())
			if err != nil {
				return nil, err
			}
			return histsort.EncodeHistogram(counts), nil
		},
		combine: w.addHistograms,
		decide: func(agg []record.Key) (_ []record.Key, err error) {
			switch {
			case ref == nil:
				total := histsort.DecodeHistogram(agg)[0].N
				shares := cfg.Perf.Shares(total)
				minShare := shares[0]
				targets := make([]int64, p-1)
				var cum int64
				for i, s := range shares {
					if s < minShare {
						minShare = s
					}
					if i < p-1 {
						cum += s
						targets[i] = cum
					}
				}
				// A partition errs by its two cuts' errors: half each.
				tol := max(int64(cfg.HistTolerance*float64(minShare))/2, 1)
				ref, err = histsort.NewRefiner(histsort.Config{Targets: targets, Total: total, Tolerance: tol})
			case len(cands) == 0: // converged last round: these are the cuts
				cuts := ref.Pivots()
				pivots := make([]record.Key, len(cuts))
				var tied []int64
				for j, c := range cuts {
					pivots[j] = c.Key
					if c.Tied() {
						tied = append(tied, int64(j), c.Take)
					}
				}
				return withTies(pivots, tied), nil
			default:
				err = ref.Observe(cands, histsort.DecodeHistogram(agg))
			}
			if err != nil {
				return nil, err
			}
			// The candidates are the only key-valued samples this
			// strategy ships; count them once, at the source.
			cands = ref.Candidates()
			w.sampleKeys += int64(len(cands))
			return cands, nil
		},
	}
}

// scanRun streams a run of step 1 through visit, one block at a time,
// charging the block reads to acct and one comparison per key.
func (w *worker) scanRun(run diskio.Section, acct diskio.Accounting, visit func([]record.Key)) error {
	n, cfg := w.n, w.cfg
	f, r, err := run.Open(n.FS(), cfg.BlockKeys, acct)
	if err != nil {
		return err
	}
	defer f.Close()
	defer r.Release()
	buf := make([]record.Key, cfg.BlockKeys)
	for {
		cnt, err := diskio.ReadChunk(r, buf)
		if err != nil || cnt == 0 {
			return err
		}
		visit(buf[:cnt])
		n.ChargeCompute(int64(cnt))
	}
}

// scanRanks answers ranks' queries with one scan of a run: for each query
// q, the keys ≤ q, the largest of them and the smallest key above q.  A
// block that ends at or below the current query is booked whole; only
// blocks a query cuts are walked key by key.
func (w *worker) scanRanks(run diskio.Section, qs []record.Key, acct diskio.Accounting) ([]histsort.Count, error) {
	out := make([]histsort.Count, len(qs))
	var n int64
	var last record.Key // the largest key so far: 0, the neutral, before any
	j := 0
	err := w.scanRun(run, acct, func(keys []record.Key) {
		jj := j // a register for the hot loop; j itself lives in the closure
		if jj == len(qs) || keys[len(keys)-1] <= qs[jj] {
			n += int64(len(keys))
			last = keys[len(keys)-1]
			return
		}
		for _, key := range keys {
			for jj < len(qs) && key > qs[jj] {
				out[jj] = histsort.Count{N: n, Pred: last, Succ: key}
				jj++
			}
			n++
			last = key
		}
		j = jj
	})
	for ; j < len(qs); j++ {
		out[j] = histsort.Count{N: n, Pred: last, Succ: noKey}
	}
	return out, err
}
