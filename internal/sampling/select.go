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
// may decode into dst, an empty buffer of capacity block.  A global
// rank is the sum of the runs' ranks.  The fences bound each run's rank
// of a key to a block, which brackets the key at position a between two
// fence keys without I/O; a search over the fence keys between them,
// probing the block each run's rank falls in, finds the two adjacent
// fence keys around it, and the keys strictly between those lie in one
// probed block a run.  Its midpoint is the largest fence in the bracket
// whose guessed rank is ≤ a: exact in a block probed for the position,
// linear between a block's fence and the next elsewhere (half of a run's
// last block).  A right guess costs R + 1 probes: a block a run, and the
// next block of the run whose fence is the key's lower bound.  It probes
// a block at most once a position: fewer than 4 blocks a run (one for
// the runs the bracket misses, fewer than 2 a run for the fences inside
// it, one for the rank of the key itself).
func MultiwaySelect(fences [][]record.Key, lens []int64, block int64, at []int64,
	probe func(r int, b int64, dst []record.Key) ([]record.Key, error)) ([]record.Key, error) {
	return multiwaySelect(fences, lens, block, at, probe, false)
}

// multiwaySelect is MultiwaySelect or, with halve, the bisection that
// halves the bracket, which the tests hold it against.
func multiwaySelect(fences [][]record.Key, lens []int64, block int64, at []int64,
	probe func(r int, b int64, dst []record.Key) ([]record.Key, error), halve bool) ([]record.Key, error) {
	g := slices.Concat(fences...) // every fence key, ascending, once
	slices.Sort(g)
	g = slices.Compact(g)
	out := make([]record.Key, len(at))
	hit := make([][]record.Key, len(fences))                               // per run, the block the last exact rank probed
	probed := make(map[[2]int64][]record.Key, 4*len(fences))               // the blocks probed for the position
	slab, used := make([]record.Key, int64(len(fences)+2)*block), int64(0) // the probed blocks' buffers
	between := make([]record.Key, 0, block)
	const bounds, guess, exact = 0, 1, 2
	// rank bounds how many keys are < v (≤ v with le): from the fences
	// alone, or guessed, or with mode exact the rank itself, probing.
	rank := func(v record.Key, le bool, mode int) (lb, ub int64, err error) {
		past := func(k record.Key) bool { return k > v || !le && k == v }
		for r, f := range fences {
			b := int64(sort.Search(len(f), func(i int) bool { return past(f[i]) })) - 1
			if hit[r] = nil; b < 0 {
				continue
			}
			at := [2]int64{int64(r), b}
			if hit[r] = probed[at]; hit[r] == nil && mode == exact {
				if used == int64(len(slab)) { // a position past R + 2 probes: a slab twice the size
					slab, used = make([]record.Key, 2*len(slab)), 0
				}
				if hit[r], err = probe(r, b, slab[used:used:used+block]); err != nil {
					return 0, 0, err
				}
				probed[at], used = hit[r], used+block
			}
			n := b*block + int64(sort.Search(len(hit[r]), func(i int) bool { return past(hit[r][i]) }))
			switch {
			case hit[r] != nil:
			case mode == bounds:
				lb, ub = lb+n+1, ub+min(n+block, lens[r])
				continue
			case int(b)+1 < len(f):
				n += int64(float64(block) * float64(v-f[b]) / float64(f[b+1]-f[b]))
			default:
				n += (lens[r] - n) / 2
			}
			lb, ub = lb+n, ub+n
		}
		return lb, ub, nil
	}
	for j, a := range at {
		clear(probed)
		used = 0
		// count(< g[lo]) ≤ a < count(< g[hi]), from the fences, then exactly.
		lo := sort.Search(len(g), func(i int) bool { _, ub, _ := rank(g[i], false, bounds); return ub > a }) - 1
		hi := sort.Search(len(g), func(i int) bool { lb, _, _ := rank(g[i], false, bounds); return lb > a })
		for hi-lo > 1 {
			mid := max(lo+1, lo+sort.Search(hi-lo-1, func(i int) bool { n, _, _ := rank(g[lo+1+i], false, guess); return n > a }))
			if halve {
				mid = int(uint(lo+hi) >> 1)
			}
			n, _, err := rank(g[mid], false, exact)
			if err != nil {
				return nil, err
			} else if n <= a {
				lo = mid
			} else {
				hi = mid
			}
		}
		le, _, err := rank(g[lo], true, exact)
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
