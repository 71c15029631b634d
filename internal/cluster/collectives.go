package cluster

import (
	"fmt"

	"hetsort/internal/record"
)

// Flat collectives: the star, in which node 0 talks to every other node
// directly.  A tree of radix p has exactly one level, so these are the
// tree collectives at radix p, message for message.  All nodes must call
// the same collective with consistent arguments (the usual SPMD
// contract); only root 0 is supported.

// Gather sends each node's keys to root 0; the root returns the
// per-node slices indexed by rank (its own contribution included),
// others return nil.
func (n *Node) Gather(root, tag int, keys []record.Key) ([][]record.Key, error) {
	if root != 0 {
		return nil, fmt.Errorf("cluster: gather to root %d: only root 0 is supported", root)
	}
	return n.TreeGather(n.P(), tag, keys)
}

// Bcast distributes keys from root 0 to every node; every node returns
// the broadcast payload.
func (n *Node) Bcast(root, tag int, keys []record.Key) ([]record.Key, error) {
	if root != 0 {
		return nil, fmt.Errorf("cluster: broadcast from root %d: only root 0 is supported", root)
	}
	return n.TreeBcast(n.P(), tag, keys)
}
