package cluster

import "hetsort/internal/record"

// Collectives built on Send/Recv.  All nodes must call the same
// collective with consistent arguments (the usual SPMD contract).  Each
// uses fixed peer ordering, so the virtual clocks are deterministic.

// Gather sends each node's keys to root; root returns the per-node
// slices indexed by rank (its own contribution included), others return
// nil.
func (n *Node) Gather(root, tag int, keys []record.Key) ([][]record.Key, error) {
	if n.id != root {
		return nil, n.Send(root, tag, keys)
	}
	out := make([][]record.Key, n.P())
	out[root] = append([]record.Key(nil), keys...)
	for from := 0; from < n.P(); from++ {
		if from == root {
			continue
		}
		got, err := n.Recv(from, tag)
		if err != nil {
			return nil, err
		}
		out[from] = got
	}
	return out, nil
}

// Bcast distributes keys from root to every node; every node returns
// the broadcast payload.
func (n *Node) Bcast(root, tag int, keys []record.Key) ([]record.Key, error) {
	if n.id == root {
		for to := 0; to < n.P(); to++ {
			if to == root {
				continue
			}
			if err := n.Send(to, tag, keys); err != nil {
				return nil, err
			}
		}
		return append([]record.Key(nil), keys...), nil
	}
	return n.Recv(root, tag)
}
