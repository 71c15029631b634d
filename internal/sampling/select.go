package sampling

import (
	"slices"
	"sort"

	"hetsort/internal/record"
)

// MultiwaySelect returns the keys at the ascending positions at of the
// merged order of sorted runs that are known in memory only by their
// fences — fences[r][b] is the key at b·block of run r, which holds
// lens[r] keys — and read a block at a time by probe(r, b, dst), which
// may decode into dst, a buffer it returned before.  A global
// rank is the sum of the runs' ranks.  The fences bound each run's rank
// of a key to a block, which brackets the key at position a between two
// fence keys without I/O; a bisection over the fence keys between them,
// probing the block each run's rank falls in, finds the two adjacent
// fence keys around it, and the keys strictly between those lie in one
// probed block a run.  It probes a block at most once a position: fewer
// than 4 blocks a run (one for the runs the bracket misses, fewer than 2
// a run for the fences inside it, one for the rank of the key itself).
func MultiwaySelect(fences [][]record.Key, lens []int64, block int64, at []int64,
	probe func(r int, b int64, dst []record.Key) ([]record.Key, error)) ([]record.Key, error) {
	var g []record.Key // every fence key, ascending, once
	for _, f := range fences {
		g = append(g, f...)
	}
	slices.Sort(g)
	g = slices.Compact(g)
	out := make([]record.Key, len(at))
	hit := make([][]record.Key, len(fences)) // per run, the block the last exact rank probed
	probed := map[[2]int64][]record.Key{}    // the blocks probed for the position
	var free [][]record.Key                  // and the buffers of the positions before
	var between []record.Key
	// rank bounds how many keys are < v (≤ v with le): from the fences
	// alone, or with exact set to the rank itself, probing.
	rank := func(v record.Key, le, exact bool) (lb, ub int64, err error) {
		past := func(k record.Key) bool { return k > v || !le && k == v }
		for r, f := range fences {
			b := int64(sort.Search(len(f), func(i int) bool { return past(f[i]) })) - 1
			hit[r] = nil
			if b < 0 {
				continue
			} else if !exact {
				lb, ub = lb+b*block+1, ub+min((b+1)*block, lens[r])
				continue
			}
			at := [2]int64{int64(r), b}
			if hit[r] = probed[at]; hit[r] == nil {
				var dst []record.Key
				if len(free) > 0 {
					dst, free = free[len(free)-1], free[:len(free)-1]
				}
				if hit[r], err = probe(r, b, dst); err != nil {
					return 0, 0, err
				}
				probed[at] = hit[r]
			}
			n := b*block + int64(sort.Search(len(hit[r]), func(i int) bool { return past(hit[r][i]) }))
			lb, ub = lb+n, ub+n
		}
		return lb, ub, nil
	}
	for j, a := range at {
		for k, keys := range probed {
			free = append(free, keys)
			delete(probed, k)
		}
		// count(< g[lo]) ≤ a < count(< g[hi]), from the fences, then exactly.
		lo := sort.Search(len(g), func(i int) bool { _, ub, _ := rank(g[i], false, false); return ub > a }) - 1
		hi := sort.Search(len(g), func(i int) bool { lb, _, _ := rank(g[i], false, false); return lb > a })
		for hi-lo > 1 {
			mid := int(uint(lo+hi) >> 1)
			n, _, err := rank(g[mid], false, true)
			if err != nil {
				return nil, err
			} else if n <= a {
				lo = mid
			} else {
				hi = mid
			}
		}
		le, _, err := rank(g[lo], true, true)
		if err != nil {
			return nil, err
		}
		out[j] = g[lo]
		if a >= le { // the key lies strictly between g[lo] and g[hi]
			between = between[:0]
			for _, keys := range hit {
				for _, k := range keys {
					if k > g[lo] && (hi == len(g) || k < g[hi]) {
						between = append(between, k)
					}
				}
			}
			slices.Sort(between)
			out[j] = between[a-le]
		}
	}
	return out, nil
}
