package extsort

import (
	"math"

	"hetsort/internal/enum"
	"hetsort/internal/record"
)

// Topology selects the communication structure of steps 2 and 4.  The
// flat structure is Algorithm 1 as written: one O(p·s) gather for the
// samples and one p×p all-to-all round for the redistribution — the
// radix-p case of the same routing algebra (topoLevels gives {p, 1}).
// Both collapse long before p=1024 — the designated node's fan-in and
// the number of live links grow with p and p² respectively — so the
// hierarchical structures trade extra rounds (and one extra disk pass
// per round) for O(r) fan-in per node per round, the multi-pass
// all-to-all of Rahn/Sanders/Singler's distributed external sort.
// Every node's output is byte-identical to the flat run's: each pivot
// strategy cuts at positions that do not depend on the radix.
type Topology int

const (
	// TopologyFlat is the paper's direct structure: star collectives
	// and a single all-to-all redistribution round.
	TopologyFlat Topology = iota
	// TopologyTree aggregates samples up an r-ary reduction tree and
	// redistributes through ⌈log_r p⌉ rounds of r-way exchanges.
	TopologyTree
	// TopologyGrid is the 2-round √p×√p special case: redistribution
	// first routes to the destination's "column" block, then within
	// it; collectives use a 2-level tree of radix ⌈√p⌉.
	TopologyGrid
)

var topologyNames = enum.Table[Topology]{Kind: "topology", Names: []string{"flat", "tree", "grid"}}

func (t Topology) String() string                { return topologyNames.Name(t) }
func (t Topology) MarshalText() ([]byte, error)  { return topologyNames.Marshal(t) }
func (t *Topology) UnmarshalText(b []byte) error { return topologyNames.Unmarshal(t, b) }

// resolveRadix turns the topology into the one fan-in r the whole run
// uses — the collective tree of step 2 and the barriers, the
// redistribution levels: p for flat (a star is the
// radix-p tree), ⌈√p⌉ for the grid, the configured Radix for a tree.
func resolveRadix(p int, topo Topology, radix int) int {
	switch topo {
	case TopologyFlat:
		radix = p
	case TopologyGrid:
		radix = int(math.Ceil(math.Sqrt(float64(p))))
	}
	if radix < 2 {
		radix = 2
	}
	return radix
}

// topoLevels returns the strictly decreasing block sizes the
// redistribution refines through at radix r: levels[0] = p,
// levels[len-1] = 1, and round t refines blocks of levels[t] ranks into
// sub-blocks of levels[t+1].  A single node still gets one (empty)
// round, {1, 1}, so the engine needs no p=1 case.  Every inner level is
// a power of the radix (so r ≥ p gives the single round {p, 1}), hence
// the levels are *nested*: a rank's level-(t+1) block boundary is always
// also a level-t boundary (blocks align at absolute multiples of their
// size, the last block of each level ragged), which the round invariant
// — every node of dest's current block holds a bucket for dest —
// depends on.
func topoLevels(p, r int) []int {
	if p <= 1 {
		return []int{1, 1}
	}
	lv := []int{1}
	for s := r; s < p; s *= r {
		lv = append(lv, s)
	}
	lv = append(lv, p)
	// Reverse into decreasing order.
	for i, j := 0, len(lv)-1; i < j; i, j = i+1, j-1 {
		lv[i], lv[j] = lv[j], lv[i]
	}
	return lv
}

// routeStep returns the representative node that id's bucket for dest
// travels to in a round refining blocks of s ranks into sub-blocks of
// sub ranks: the node of dest's sub-block at id's offset within the
// block (mod sub), clamped into the sub-block.  Spreading by the
// sender's offset balances the merge work over the sub-block; the
// clamp handles the ragged last sub-block when p is not a power of the
// radix.  When dest lies in id's own sub-block the route is id itself —
// the bucket stays local (nested levels make the block start a
// multiple of sub, so the offset formula yields id exactly).
func routeStep(id, dest, s, sub, p int) int {
	lo := dest / sub * sub
	end := lo + sub
	if end > p {
		end = p
	}
	bs := id / s * s
	rep := lo + (id-bs)%sub
	if rep >= end {
		rep = end - 1
	}
	return rep
}

// roundInNeighbors returns, ascending, the block peers whose buckets
// for q's sub-block route to q in the round refining s into sub.
func roundInNeighbors(q, s, sub, p int) []int {
	bs := q / s * s
	hi := bs + s
	if hi > p {
		hi = p
	}
	slo := q / sub * sub
	var in []int
	for i := bs; i < hi; i++ {
		if i != q && routeStep(i, slo, s, sub, p) == q {
			in = append(in, i)
		}
	}
	return in
}

// ownRounds counts the leading rounds of the levels lv that route no
// peer's bucket to node q (ragged blocks leave such nodes: at p=10, r=3
// only nodes 0 and 9 have round-0 in-neighbors), so that q's buckets
// are still what step 3 made them.
func ownRounds(q int, lv []int, p int) int {
	t := 0
	for t+1 < len(lv) && len(roundInNeighbors(q, lv[t], lv[t+1], p)) == 0 {
		t++
	}
	return t
}

// PeakFanIn returns the worst per-node count of concurrently open
// incoming redistribution streams (in-neighbors plus the node's own
// bucket): the worst round in-degree + 1, which is p for the flat
// all-to-all and O(r) for the hierarchical structures — O(r·log_r p)
// never materializes; each round's fan-in is what a node holds open at
// once.
func PeakFanIn(p int, topo Topology, radix int) int {
	lv := topoLevels(p, resolveRadix(p, topo, radix))
	peak := 1
	for t := 0; t+1 < len(lv); t++ {
		s, sub := lv[t], lv[t+1]
		indeg := make([]int, p)
		for i := 0; i < p; i++ {
			bs := i / s * s
			hi := bs + s
			if hi > p {
				hi = p
			}
			for lo := bs; lo < hi; lo += sub {
				if rep := routeStep(i, lo, s, sub, p); rep != i {
					indeg[rep]++
				}
			}
		}
		for _, d := range indeg {
			if d+1 > peak {
				peak = d + 1
			}
		}
	}
	return peak
}

// LinkMemoryBytes estimates the in-flight message payload a run of this
// configuration pins across the cluster: every node buffers up to its
// peak fan-in of concurrently open incoming streams, one MessageKeys
// message each.  It prices payloads, not queue slots (a link is an
// unbounded FIFO).  For the flat topology that is
// p²·MessageKeys·KeySize — the O(p²) scaling that turns into an OOM at
// large p — while tree/grid stay at p·(r+1)·MessageKeys·KeySize.  The
// hetsortd admission check charges this against the machine's memory
// budget so an over-subscribed flat job is rejected with a 422 instead
// of exhausting the host.
func (c Config) LinkMemoryBytes(p int) int64 {
	cc := c
	cc.ApplyDefaults(p)
	fan := int64(PeakFanIn(p, cc.Topology, cc.Radix))
	per := SatMul(int64(cc.MessageKeys), record.KeySize)
	return SatMul(int64(p), SatMul(fan, per))
}

// SatMul returns a·b for non-negative operands, saturating at MaxInt64
// instead of wrapping, so an admission estimate never overflows into a
// small (or negative) value that slips past a budget.
func SatMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}
