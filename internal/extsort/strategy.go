package extsort

import (
	"fmt"

	"hetsort/internal/diskio"
	"hetsort/internal/quantile"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
)

// Strategy selects how step 2 chooses the partitioning pivots.  The
// paper's Algorithm 1 uses heterogeneous regular sampling; the
// companion overpartitioning scheme (Cérin & Gaudiot, Cluster 2000) and
// a naive random-pivot baseline are provided for the ablation benches.
type Strategy int

const (
	// RegularSampling is Algorithm 1's scheme: regularly spaced
	// samples from the sorted files, perf-proportional counts,
	// weighted pivot quantiles.
	RegularSampling Strategy = iota
	// Overpartitioning draws k*p random samples per unit of perf,
	// cuts the data into k*p sublists and assigns consecutive
	// sublists to processors in perf proportion (Li & Sevcik adapted
	// to heterogeneous clusters).
	Overpartitioning
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
	// candidate splitters each round, every node histograms its sorted
	// file against them in one scan, the counts reduce up the
	// collective tree, and the candidates narrow until every pivot's
	// global rank is within HistTolerance of its perf-share target —
	// provable balance on adversarial and duplicate-heavy inputs where
	// one-shot sampling degrades, with only O(p) keys shipped per
	// round instead of O(p²) samples (see internal/histsort).
	Histogram
)

func (s Strategy) String() string {
	switch s {
	case RegularSampling:
		return "regular-sampling"
	case Overpartitioning:
		return "overpartitioning"
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

// sampleRandom reads `count` keys at distinct random positions of the
// node's sorted file (charging a seek + block read each, like the
// regular sampler).
func (w *worker) sampleRandom(li int64, count int, seed int64) ([]record.Key, error) {
	n := w.n
	if li <= 0 || count <= 0 {
		return nil, nil
	}
	f, err := n.FS().Open(w.sortedName())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record.Key
	for _, idx := range sampling.RandomSampleIndices(li, count, seed) {
		k, err := diskio.ReadKeyAt(f, idx, n.Acct())
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// selectPivotsRandom implements the RandomPivots strategy: each node
// contributes perf-proportional random samples; node 0 picks the p-1
// weighted pivots from them without any regular-position structure.
func (w *worker) selectPivotsRandom(li int64) ([]record.Key, error) {
	n, cfg := w.n, w.cfg
	p, id := n.P(), n.ID()
	if p == 1 {
		return nil, nil
	}
	count := (p - 1) * cfg.Perf[id]
	samples, err := w.sampleRandom(li, count, cfg.Seed+int64(id)*101)
	if err != nil {
		return nil, err
	}
	w.pstats.Rounds = 1
	w.pstats.SampleKeys = int64(len(samples))
	// TreeGather presents the root the same per-rank slices as the flat
	// gather, so the hierarchical dispatch changes no pivot byte.
	gathered, err := w.gather(tagSamples, samples)
	if err != nil {
		return nil, err
	}
	var pivots []record.Key
	if id == 0 {
		var cands []record.Key
		for _, g := range gathered {
			cands = append(cands, g...)
		}
		n.ChargeCompute(int64(len(cands)) * 16)
		pivots, err = sampling.SelectPivotsWeighted(cands, cfg.Perf)
		if err != nil {
			return nil, err
		}
	}
	return w.bcast(tagPivots, pivots)
}

// selectPivotsOver implements the Overpartitioning strategy for the
// external sorter: k*p-1 pivots define k*p sublists; all nodes agree on
// a consecutive-range assignment of sublists to processors weighted by
// perf, and the returned p-1 "processor pivots" are the sublist
// boundaries at the assignment cuts.  Converting the assignment back to
// p-1 pivots keeps steps 3-5 identical across strategies.
func (w *worker) selectPivotsOver(li int64) ([]record.Key, error) {
	n, cfg := w.n, w.cfg
	p, id := n.P(), n.ID()
	if p == 1 {
		return nil, nil
	}
	k := cfg.OverFactor
	if k <= 0 {
		k = 4
	}
	count := k * p * cfg.Perf[id]
	samples, err := w.sampleRandom(li, count, cfg.Seed+int64(id)*211)
	if err != nil {
		return nil, err
	}
	w.pstats.Rounds = 1
	w.pstats.SampleKeys = int64(len(samples))
	gathered, err := w.gather(tagSamples, samples)
	if err != nil {
		return nil, err
	}
	// Node 0 selects the fine pivots.
	var fine []record.Key
	if id == 0 {
		var cands []record.Key
		for _, g := range gathered {
			cands = append(cands, g...)
		}
		n.ChargeCompute(int64(len(cands)) * 16)
		fine, err = sampling.OverpartitionPivots(cands, p, k)
		if err != nil {
			return nil, err
		}
	}
	fine, err = w.bcast(tagPivots, fine)
	if err != nil {
		return nil, err
	}

	// Every node counts its local sublist sizes with one scan of the
	// sorted file, then the global sizes are agreed via AllGather.
	sizes, err := w.countSublists(fine)
	if err != nil {
		return nil, err
	}
	sizeKeys, err := keysFromCounts(sizes)
	if err != nil {
		return nil, err
	}
	w.pstats.SampleKeys += int64(len(sizeKeys))
	all, err := w.allGather(tagOverSizes, sizeKeys)
	if err != nil {
		return nil, err
	}
	global := make([]int64, len(sizes))
	for i := range all {
		global[i%len(sizes)] += int64(all[i])
	}
	assign, err := sampling.AssignSublists(global, cfg.Perf)
	if err != nil {
		return nil, err
	}
	// The processor pivots are the fine pivots at the assignment cuts.
	pivots := make([]record.Key, p-1)
	cut := 0
	for proc := 0; proc < p-1; proc++ {
		cut += len(assign[proc])
		if cut-1 < len(fine) {
			pivots[proc] = fine[cut-1]
		} else {
			pivots[proc] = ^record.Key(0)
		}
	}
	return pivots, nil
}

// selectPivotsQuantile implements the QuantileSketch strategy: stream
// the sorted file through an ε-sketch, gather the compressed sketches
// on node 0 as (values, weights) pairs, merge, and answer the pivot
// quantiles from the merged sketch.
func (w *worker) selectPivotsQuantile(li int64) ([]record.Key, error) {
	n, cfg := w.n, w.cfg
	p, id := n.P(), n.ID()
	if p == 1 {
		return nil, nil
	}
	eps := cfg.QuantileEps
	if eps <= 0 {
		eps = 0.01
	}
	sk, err := quantile.New(eps)
	if err != nil {
		return nil, err
	}
	if li > 0 {
		f, err := n.FS().Open(w.sortedName())
		if err != nil {
			return nil, err
		}
		r := diskio.NewReader(f, cfg.BlockKeys, n.Acct())
		buf := make([]record.Key, cfg.BlockKeys)
		for {
			cnt, err := diskio.ReadChunk(r, buf)
			if err != nil {
				f.Close()
				return nil, err
			}
			if cnt == 0 {
				break
			}
			sk.InsertAll(buf[:cnt])
			n.ChargeCompute(int64(cnt))
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	vals, weights := sk.Export()
	w.pstats.Rounds = 1
	w.pstats.SampleKeys = 2 * int64(len(vals))
	if w.treeColl() {
		// Sketches combine pairwise up the reduction tree: each inner
		// node merges its children's summaries into its own and forwards
		// one ε-sketch, so the root receives O(r) sketches instead of p.
		// GK merging is order-sensitive, so the pivots can differ from
		// the flat run's — the topology is an outcome parameter for this
		// strategy (both partitionings satisfy the sketch error bound,
		// and the global sorted output is identical either way).
		enc, err := encodeSketch(vals, weights)
		if err != nil {
			return nil, err
		}
		agg, err := n.TreeReduce(w.collRadix(), tagSamples, enc,
			func(acc, child []record.Key) ([]record.Key, error) {
				av, aw := decodeSketch(acc)
				cv, cw := decodeSketch(child)
				sa, err := quantile.FromExport(eps, av, aw)
				if err != nil {
					return nil, err
				}
				sc, err := quantile.FromExport(eps, cv, cw)
				if err != nil {
					return nil, err
				}
				n.ChargeCompute(int64(sa.TupleCount()+sc.TupleCount()) * 8)
				sa.Merge(sc)
				mv, mw := sa.Export()
				return encodeSketch(mv, mw)
			})
		if err != nil {
			return nil, err
		}
		var pivots []record.Key
		if id == 0 {
			rv, rw := decodeSketch(agg)
			merged, err := quantile.FromExport(eps, rv, rw)
			if err != nil {
				return nil, err
			}
			n.ChargeCompute(int64(merged.TupleCount()) * 8)
			pivots = w.quantilePivots(merged)
		}
		return w.bcast(tagPivots, pivots)
	}
	wk, err := quantile.WeightsToKeys(weights)
	if err != nil {
		return nil, err
	}
	gv, err := n.Gather(0, tagSamples, vals)
	if err != nil {
		return nil, err
	}
	gw, err := n.Gather(0, tagOverSizes, wk)
	if err != nil {
		return nil, err
	}
	var pivots []record.Key
	if id == 0 {
		merged, err := quantile.New(eps)
		if err != nil {
			return nil, err
		}
		for i := range gv {
			ws := make([]int64, len(gw[i]))
			for j, wt := range gw[i] {
				ws[j] = int64(wt)
			}
			s, err := quantile.FromExport(eps, gv[i], ws)
			if err != nil {
				return nil, fmt.Errorf("node %d sketch: %w", i, err)
			}
			merged.Merge(s)
		}
		n.ChargeCompute(int64(merged.TupleCount()) * 8)
		pivots = w.quantilePivots(merged)
	}
	return n.Bcast(0, tagPivots, pivots)
}

// quantilePivots answers the p-1 perf-weighted pivot quantiles from the
// merged sketch.
func (w *worker) quantilePivots(merged *quantile.Summary) []record.Key {
	p := w.n.P()
	sum := w.cfg.Perf.Sum()
	pivots := make([]record.Key, p-1)
	var cum int64
	for j := 0; j < p-1; j++ {
		cum += int64(w.cfg.Perf[j])
		pv, qerr := merged.Query(float64(cum) / float64(sum))
		if qerr != nil {
			// Empty global input: zero pivots are valid.
			pv = 0
		}
		pivots[j] = pv
	}
	return pivots
}

// encodeSketch flattens a sketch export into one key slice for the
// reduction tree — (value, weight) pairs interleaved.  Weights normally
// fit a Key because they never exceed the (32-bit-keyed) dataset size,
// but a wider weight is surfaced as an error rather than truncated.
func encodeSketch(vals []record.Key, weights []int64) ([]record.Key, error) {
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

// keysFromCounts converts sublist-size counters to wire keys for the
// size agreement, surfacing 32-bit overflow instead of wrapping.
func keysFromCounts(counts []int64) ([]record.Key, error) {
	out := make([]record.Key, len(counts))
	for i, c := range counts {
		if c < 0 || c > int64(^record.Key(0)) {
			return nil, fmt.Errorf("sublist size %d overflows the 32-bit wire format", c)
		}
		out[i] = record.Key(c)
	}
	return out, nil
}

func decodeSketch(enc []record.Key) ([]record.Key, []int64) {
	vals := make([]record.Key, 0, len(enc)/2)
	weights := make([]int64, 0, len(enc)/2)
	for i := 0; i+1 < len(enc); i += 2 {
		vals = append(vals, enc[i])
		weights = append(weights, int64(enc[i+1]))
	}
	return vals, weights
}

// countSublists scans the sorted file once and counts how many keys
// fall in each of the len(fine)+1 sublists.
func (w *worker) countSublists(fine []record.Key) ([]int64, error) {
	n, cfg := w.n, w.cfg
	f, err := n.FS().Open(w.sortedName())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := diskio.NewReader(f, cfg.BlockKeys, n.Acct())
	sizes := make([]int64, len(fine)+1)
	seg := 0
	buf := make([]record.Key, cfg.BlockKeys)
	for {
		cnt, err := diskio.ReadChunk(r, buf)
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			return sizes, nil
		}
		for _, key := range buf[:cnt] {
			for seg < len(fine) && key > fine[seg] {
				seg++
			}
			sizes[seg]++
		}
		n.ChargeCompute(int64(cnt))
	}
}
