package cluster

import "hetsort/internal/record"

// Tree collectives: r-ary reduction-tree counterparts of the flat
// collectives in collectives.go, always rooted at node 0.  The flat
// Gather funnels p−1 messages into one node — O(p) fan-in and O(p·s)
// root work — which is exactly what collapses first at p=1024.  Here
// the cluster is decomposed recursively into contiguous rank blocks:
// a block [lo,hi) splits into at most r sub-blocks of ⌈(hi−lo)/r⌉
// ranks, each sub-block's lowest rank acts as its leader, and data
// moves only between a block leader and its ≤ r−1 sub-leaders.  Every
// node therefore talks to O(r) peers per level and O(r·log_r p) peers
// in total, and no link ever carries more than a sub-block's worth of
// messages.
//
// As with the flat collectives, all nodes must call the same
// collective with consistent arguments, and peer orderings are fixed
// (ascending sub-blocks, ascending ranks within them) so the virtual
// clocks stay deterministic.

// treeRadix clamps a radix to the meaningful minimum.
func treeRadix(r int) int {
	if r < 2 {
		return 2
	}
	return r
}

// blockOf returns the sub-block [mylo,myhi) of [lo,hi) containing rank
// id, given sub-blocks of size sub.
func blockOf(id, lo, hi, sub int) (mylo, myhi int) {
	mylo = lo + (id-lo)/sub*sub
	myhi = mylo + sub
	if myhi > hi {
		myhi = hi
	}
	return mylo, myhi
}

// TreeGather gathers each node's keys to node 0 up an r-ary tree.
// Node 0 returns the per-node slices indexed by rank (its own
// contribution included, as a copy); others return nil.  Equivalent to
// Gather(0, tag, keys) message-for-message at the root's result, but
// each sub-leader forwards its block's contributions as one message
// per rank, so no node receives from more than r−1 peers.
func (n *Node) TreeGather(radix, tag int, keys []record.Key) ([][]record.Key, error) {
	r := treeRadix(radix)
	var rec func(lo, hi int) ([][]record.Key, error)
	rec = func(lo, hi int) ([][]record.Key, error) {
		if hi-lo == 1 {
			return [][]record.Key{append([]record.Key(nil), keys...)}, nil
		}
		sub := (hi - lo + r - 1) / r
		mylo, myhi := blockOf(n.id, lo, hi, sub)
		got, err := rec(mylo, myhi)
		if err != nil {
			return nil, err
		}
		if n.id == mylo && mylo != lo {
			// Sub-leader: forward the block's contributions to the
			// leader, one message per rank, ascending.
			for _, part := range got {
				if err := n.Send(lo, tag, part); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
		if n.id != lo {
			return nil, nil
		}
		out := make([][]record.Key, hi-lo)
		copy(out, got) // own sub-block is [lo, myhi)
		for s := lo + sub; s < hi; s += sub {
			end := s + sub
			if end > hi {
				end = hi
			}
			for rank := s; rank < end; rank++ {
				part, err := n.Recv(s, tag)
				if err != nil {
					return nil, err
				}
				out[rank-lo] = part
			}
		}
		return out, nil
	}
	return rec(0, n.P())
}

// TreeBcast distributes keys from node 0 down the r-ary tree; every
// node returns the broadcast payload.  Only node 0's keys argument is
// consulted.
func (n *Node) TreeBcast(radix, tag int, keys []record.Key) ([]record.Key, error) {
	r := treeRadix(radix)
	data := keys
	var rec func(lo, hi int) error
	rec = func(lo, hi int) error {
		if hi-lo == 1 {
			return nil
		}
		sub := (hi - lo + r - 1) / r
		mylo, myhi := blockOf(n.id, lo, hi, sub)
		if n.id == lo {
			for s := lo + sub; s < hi; s += sub {
				if err := n.Send(s, tag, data); err != nil {
					return err
				}
			}
		} else if n.id == mylo {
			got, err := n.Recv(lo, tag)
			if err != nil {
				return err
			}
			data = got
		}
		return rec(mylo, myhi)
	}
	if err := rec(0, n.P()); err != nil {
		return nil, err
	}
	if n.id == 0 {
		return append([]record.Key(nil), keys...), nil
	}
	return data, nil
}

// TreeBarrier synchronises all nodes through the r-ary tree, consuming
// tags tag and tag+1: no node returns before every node has entered,
// and all clocks advance to at least the global maximum at entry (plus
// the messaging cost of the synchronisation itself).
func (n *Node) TreeBarrier(radix, tag int) error {
	if _, err := n.TreeGather(radix, tag, nil); err != nil {
		return err
	}
	_, err := n.TreeBcast(radix, tag+1, nil)
	return err
}

// TreeReduce folds every node's keys into node 0 up the r-ary tree:
// each block leader starts from its own sub-result and combines its
// sub-leaders' contributions in ascending rank order, so one merged
// message crosses each tree edge instead of the flat Gather's one per
// rank.  combine must be associative over this bracketing for the
// result to be topology-independent; a non-associative combine still
// gives a deterministic result, just not the flat one.  Node 0 returns
// the fold; others return nil.  combine may charge virtual compute time
// via the node it closes over.
func (n *Node) TreeReduce(radix, tag int, keys []record.Key, combine func(acc, child []record.Key) ([]record.Key, error)) ([]record.Key, error) {
	r := treeRadix(radix)
	var rec func(lo, hi int) ([]record.Key, error)
	rec = func(lo, hi int) ([]record.Key, error) {
		if hi-lo == 1 {
			return append([]record.Key(nil), keys...), nil
		}
		sub := (hi - lo + r - 1) / r
		mylo, myhi := blockOf(n.id, lo, hi, sub)
		acc, err := rec(mylo, myhi)
		if err != nil {
			return nil, err
		}
		if n.id == mylo && mylo != lo {
			return nil, n.Send(lo, tag, acc)
		}
		if n.id != lo {
			return nil, nil
		}
		for s := lo + sub; s < hi; s += sub {
			child, err := n.Recv(s, tag)
			if err != nil {
				return nil, err
			}
			if acc, err = combine(acc, child); err != nil {
				return nil, err
			}
		}
		return acc, nil
	}
	return rec(0, n.P())
}
