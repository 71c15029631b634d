package extsort

import (
	"fmt"

	"hetsort/internal/diskio"
	"hetsort/internal/histsort"
	"hetsort/internal/perf"
	"hetsort/internal/quantile"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
	"hetsort/internal/trace"
)

// Strategy selects how step 2 chooses the partitioning pivots.  The
// paper's Algorithm 1 uses heterogeneous regular sampling; a naive
// random-pivot baseline, a quantile sketch and iterative histogram
// refinement are provided for the ablation benches.
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
	// QuantileSketch streams each sorted file through a
	// Greenwald-Khanna summary and picks pivots from the merged
	// sketches (the variant of the paper's reference [29]): one extra
	// sequential read pass, but the designated node receives compact
	// sketches instead of p^2 samples, and the pivots are not limited
	// to the regular-sample grid.
	QuantileSketch
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

func (s Strategy) String() string {
	switch s {
	case RegularSampling:
		return "regular-sampling"
	case RandomPivots:
		return "random-pivots"
	case QuantileSketch:
		return "quantile-sketch"
	case Histogram:
		return "histogram"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

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
// would cost the radix-p root O(p·S)), merging two sketches costs 8 ops
// per tuple, adding two count vectors one op per counter.
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
// a re-gather; otherwise all nodes run the strategy's rounds.
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
	w.pivots = down
	return nil
}

// selector builds the configured strategy's selector for this node.
func (w *worker) selector() (pivotSelector, error) {
	switch w.cfg.Strategy {
	case RegularSampling:
		return w.sampled(sampling.SelectPivotsRegular), nil
	case RandomPivots:
		return w.sampled(sampling.SelectPivotsWeighted), nil
	case QuantileSketch:
		return w.sketched()
	case Histogram:
		return w.histogram(), nil
	}
	return pivotSelector{}, fmt.Errorf("unknown strategy %d", w.cfg.Strategy)
}

// concat is the combine of key samples; addCounts that of count vectors
// (exact 64-bit addition, associative and commutative, so the totals are
// the same at every radix).
func (w *worker) concat(acc, child []record.Key) ([]record.Key, error) {
	return append(acc, child...), nil
}

func (w *worker) addCounts(acc, child []record.Key) ([]record.Key, error) {
	w.n.ChargeCompute(int64(len(acc)) / 2) // a counter is two keys on the wire
	return histsort.AddCounts(acc, child), nil
}

// sampled is a one-shot sampling strategy: every node contributes the
// sample its index kept (no I/O), node 0 sorts the lot in core and picks
// the pivots.  The candidates reach node 0 in rank order at every radix,
// and the pickers depend only on the multiset anyway.
func (w *worker) sampled(pick func([]record.Key, perf.Vector) ([]record.Key, error)) pivotSelector {
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
			return pick(cands, w.cfg.Perf)
		},
	}
}

// sketched is the QuantileSketch strategy: stream the sorted file
// through an ε-sketch, merge the sketches pairwise up the tree — each
// inner node folds its children's summaries into its own and forwards
// one ε-sketch — and answer the pivot quantiles from node 0's merged
// sketch.  GK merging is order-sensitive, so the pivots depend on the
// radix: the topology is an outcome parameter for this strategy (every
// partitioning satisfies the sketch error bound, and the global sorted
// output is identical either way).
func (w *worker) sketched() (pivotSelector, error) {
	n, cfg := w.n, w.cfg
	eps := cfg.QuantileEps
	if eps <= 0 {
		eps = 0.01
	}
	sk, err := quantile.New(eps)
	if err != nil {
		return pivotSelector{}, err
	}
	return pivotSelector{
		oneShot: true,
		contribute: func(int, []record.Key) ([]record.Key, error) {
			if err := w.scanSorted(n.Acct(), func(keys []record.Key) { sk.InsertAll(keys) }); err != nil {
				return nil, err
			}
			w.sampleKeys += 2 * int64(sk.TupleCount())
			return encodeSketch(sk)
		},
		combine: func(acc, child []record.Key) ([]record.Key, error) {
			sa, err := decodeSketch(eps, acc)
			if err != nil {
				return nil, err
			}
			sc, err := decodeSketch(eps, child)
			if err != nil {
				return nil, err
			}
			n.ChargeCompute(int64(sa.TupleCount()+sc.TupleCount()) * 8)
			sa.Merge(sc)
			return encodeSketch(sa)
		},
		decide: func(agg []record.Key) ([]record.Key, error) {
			merged, err := decodeSketch(eps, agg)
			if err != nil {
				return nil, err
			}
			n.ChargeCompute(int64(merged.TupleCount()) * 8)
			// The p-1 perf-weighted pivot quantiles.
			pivots := make([]record.Key, n.P()-1)
			var cum int64
			sum := float64(cfg.Perf.Sum())
			for j := range pivots {
				cum += int64(cfg.Perf[j])
				// An empty global input answers no query: zero pivots are valid.
				pivots[j], _ = merged.Query(float64(cum) / sum)
			}
			return pivots, nil
		},
	}, nil
}

// encodeSketch flattens a sketch into one key slice for the reduction
// tree — (value, weight) pairs interleaved.  Weights normally fit a Key
// because they never exceed the (32-bit-keyed) dataset size, but a wider
// weight is surfaced as an error rather than truncated.
func encodeSketch(sk *quantile.Summary) ([]record.Key, error) {
	vals, weights := sk.Export()
	wk, err := quantile.WeightsToKeys(weights)
	if err != nil {
		return nil, err
	}
	out := make([]record.Key, 0, 2*len(vals))
	for i, v := range vals {
		out = append(out, v, wk[i])
	}
	return out, nil
}

func decodeSketch(eps float64, enc []record.Key) (*quantile.Summary, error) {
	vals := make([]record.Key, 0, len(enc)/2)
	weights := make([]int64, 0, len(enc)/2)
	for i := 0; i+1 < len(enc); i += 2 {
		vals = append(vals, enc[i])
		weights = append(weights, int64(enc[i+1]))
	}
	return quantile.FromExport(eps, vals, weights)
}

// histogram is the Histogram strategy: iterative splitter refinement
// (Histogram Sort with Sampling).  Round 0 agrees on the global key
// count so node 0 can set the rank targets of its histsort.Refiner; in
// every later round node 0's candidate splitters come down, every node
// ranks them in its sorted file (ranks: block probes or one scan), the
// per-candidate global ranks add up the tree, and the refinement narrows
// until every pivot's rank is within the tolerance of its heterogeneous
// perf-share target.  Per-link traffic is O(p) encoded counters per round
// and no node's fan-in exceeds the radix, so the strategy holds up at
// p=1024 where a flat sample gather's O(p²) keys collapse.
func (w *worker) histogram() pivotSelector {
	cfg, p := w.cfg, w.n.P()
	var ref *histsort.Refiner // node 0 only
	var cands []record.Key
	return pivotSelector{
		contribute: func(round int, down []record.Key) ([]record.Key, error) {
			if round == 0 {
				li, err := diskio.CountKeys(w.n.FS(), sortedName)
				return histsort.EncodeCounts([]int64{li}), err
			}
			// The local ranks rank(c_j) = |{k : k <= c_j}|: a probe per
			// block the candidates land in, or one scan.
			ranks, err := w.ranks(down, w.n.Acct())
			if err != nil {
				return nil, err
			}
			return histsort.EncodeCounts(ranks), nil
		},
		combine: w.addCounts,
		decide: func(agg []record.Key) (_ []record.Key, err error) {
			switch {
			case ref == nil:
				total := histsort.DecodeCounts(agg)[0]
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
				tol := int64(cfg.HistTolerance * float64(minShare))
				if tol < 1 {
					tol = 1
				}
				ref, err = histsort.NewRefiner(histsort.Config{Targets: targets, Total: total, Tolerance: tol})
			case len(cands) == 0: // converged last round: these are the pivots
				return ref.Pivots(), nil
			default:
				err = ref.Observe(cands, histsort.DecodeCounts(agg))
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

// scanSorted streams the node's sorted file through visit, one block at
// a time, charging the block reads to acct and one comparison per key.
func (w *worker) scanSorted(acct diskio.Accounting, visit func([]record.Key)) error {
	n, cfg := w.n, w.cfg
	f, r, err := diskio.Section{Name: sortedName, Keys: -1}.Open(n.FS(), cfg.BlockKeys, acct)
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

// countSublists scans the sorted file once and counts how many keys
// fall in each of the len(fine)+1 sublists: sublist j holds the keys k
// with fine[j-1] < k <= fine[j].  A block that ends inside the current
// sublist is booked whole; only blocks a pivot cuts are walked key by key.
func (w *worker) countSublists(fine []record.Key, acct diskio.Accounting) ([]int64, error) {
	sizes := make([]int64, len(fine)+1)
	seg := 0
	err := w.scanSorted(acct, func(keys []record.Key) {
		s := seg // a register for the hot loop; seg itself lives in the closure
		if s == len(fine) || keys[len(keys)-1] <= fine[s] {
			sizes[s] += int64(len(keys))
			return
		}
		for _, key := range keys {
			for s < len(fine) && key > fine[s] {
				s++
			}
			sizes[s]++
		}
		seg = s
	})
	return sizes, err
}
