package extsort

import (
	"fmt"

	"hetsort/internal/histsort"
	"hetsort/internal/record"
)

// selectPivotsHistogram implements the Histogram strategy for step 2:
// iterative splitter refinement (Histogram Sort with Sampling).  Node 0
// drives a histsort.Refiner; each round it broadcasts the candidate
// splitters, every node histograms its sorted file against them in one
// scan (the counting charged to compute, the scan to the PDM counters),
// the per-candidate global ranks reduce up the collective tree, and the
// refinement narrows until every pivot's rank is within the tolerance
// of its heterogeneous perf-share target.  An empty candidate broadcast
// terminates the loop; a final broadcast distributes the agreed pivots.
//
// The count aggregation is exact 64-bit addition — associative and
// commutative — so the flat gather and the radix-r TreeReduce deliver
// the root identical totals and the pivots are bit-identical across
// topologies.  Per-link traffic is O(p) encoded counters per round and
// no node's fan-in exceeds the collective radix, so the strategy holds
// up at p=1024 where the flat sample gather's O(p²) keys collapse.
func (w *worker) selectPivotsHistogram(li int64) ([]record.Key, error) {
	n, cfg := w.n, w.cfg
	p, id := n.P(), n.ID()
	if p == 1 {
		return nil, nil
	}

	// reduce sums an int64 vector over the nodes; only the root sees
	// the totals.  ChargeCompute covers the decode-add-encode combine.
	reduce := func(vals []int64) ([]int64, error) {
		enc := histsort.EncodeCounts(vals)
		if w.treeColl() {
			agg, err := n.TreeReduce(w.collRadix(), tagSamples, enc,
				func(acc, child []record.Key) ([]record.Key, error) {
					n.ChargeCompute(int64(len(acc)))
					return histsort.AddCounts(acc, child), nil
				})
			if err != nil || id != 0 {
				return nil, err
			}
			return histsort.DecodeCounts(agg), nil
		}
		gathered, err := n.Gather(0, tagSamples, enc)
		if err != nil || id != 0 {
			return nil, err
		}
		sum := make([]int64, len(vals))
		for _, g := range gathered {
			gv := histsort.DecodeCounts(g)
			for i := range sum {
				sum[i] += gv[i]
			}
			n.ChargeCompute(int64(len(gv)))
		}
		return sum, nil
	}

	// Agree on the global key count so the root can set rank targets.
	totals, err := reduce([]int64{li})
	if err != nil {
		return nil, err
	}

	var ref *histsort.Refiner
	if id == 0 {
		total := totals[0]
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
		ref, err = histsort.NewRefiner(histsort.Config{
			Targets: targets, Total: total, Tolerance: tol})
		if err != nil {
			return nil, err
		}
	}

	rounds := 0
	for {
		var cands []record.Key
		if id == 0 {
			cands = ref.Candidates()
		}
		cands, err = w.bcast(tagPivots, cands)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			break
		}
		rounds++
		if id == 0 {
			// The candidates are the only key-valued samples this
			// strategy ships; count them once, at the source.
			w.pstats.SampleKeys += int64(len(cands))
		}
		// One scan of the sorted file: the sublist sizes' prefix sums
		// are exactly the local ranks rank(c_j) = |{k : k <= c_j}|.
		sizes, err := w.countSublists(cands)
		if err != nil {
			return nil, fmt.Errorf("strategy %s round %d: %w", cfg.Strategy, rounds, err)
		}
		ranks := make([]int64, len(cands))
		var run int64
		for j := range cands {
			run += sizes[j]
			ranks[j] = run
		}
		agg, err := reduce(ranks)
		if err != nil {
			return nil, err
		}
		if id == 0 {
			if err := ref.Observe(cands, agg); err != nil {
				return nil, err
			}
		}
	}
	w.pstats.Rounds = rounds

	var pivots []record.Key
	if id == 0 {
		pivots = ref.Pivots()
	}
	return w.bcast(tagPivots, pivots)
}
