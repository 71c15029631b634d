package cluster

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"hetsort/internal/record"
)

// nodeKeys gives node i a distinct, recognisable contribution.
func nodeKeys(i int) []record.Key {
	out := make([]record.Key, i%3+1)
	for j := range out {
		out[j] = record.Key(100*i + j)
	}
	return out
}

// TestTreeGatherMatchesFlat checks the root's view is identical to the
// flat Gather for a spread of cluster sizes and radices, including
// sizes that are not radix powers.
func TestTreeGatherMatchesFlat(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 16, 17} {
		for _, r := range []int{2, 3, 4, 16} {
			t.Run(fmt.Sprintf("p%d.r%d", p, r), func(t *testing.T) {
				slow := make([]float64, p)
				for i := range slow {
					slow[i] = 1
				}
				c := mustNew(t, slow...)
				flat := make([][][]record.Key, p)
				tree := make([][][]record.Key, p)
				err := c.Run(func(n *Node) error {
					var err error
					if flat[n.ID()], err = n.Gather(0, 1, nodeKeys(n.ID())); err != nil {
						return err
					}
					tree[n.ID()], err = n.TreeGather(r, 2, nodeKeys(n.ID()))
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < p; i++ {
					if i != 0 {
						if tree[i] != nil {
							t.Fatalf("non-root %d returned a gather result", i)
						}
						continue
					}
					if len(tree[i]) != len(flat[i]) {
						t.Fatalf("root got %d parts, want %d", len(tree[i]), len(flat[i]))
					}
					for rank := range tree[i] {
						if fmt.Sprint(tree[i][rank]) != fmt.Sprint(flat[i][rank]) {
							t.Fatalf("rank %d: tree %v, flat %v", rank, tree[i][rank], flat[i][rank])
						}
					}
				}
			})
		}
	}
}

// TestTreeBcastAllGatherBarrier: a broadcast, an all-gather composed the
// way step 2 composes it (TreeGather up, the root's concatenation back
// down with TreeBcast) and a barrier, back to back on distinct tags.
func TestTreeBcastAllGatherBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 5, 9, 16} {
		for _, r := range []int{2, 4} {
			t.Run(fmt.Sprintf("p%d.r%d", p, r), func(t *testing.T) {
				slow := make([]float64, p)
				for i := range slow {
					slow[i] = 1
				}
				c := mustNew(t, slow...)
				payload := []record.Key{7, 8, 9}
				bcast := make([][]record.Key, p)
				allg := make([][]record.Key, p)
				err := c.Run(func(n *Node) error {
					var err error
					var in []record.Key
					if n.ID() == 0 {
						in = payload
					}
					if bcast[n.ID()], err = n.TreeBcast(r, 10, in); err != nil {
						return err
					}
					parts, err := n.TreeGather(r, 20, nodeKeys(n.ID()))
					if err != nil {
						return err
					}
					var flat []record.Key
					for _, part := range parts {
						flat = append(flat, part...)
					}
					if allg[n.ID()], err = n.TreeBcast(r, 21, flat); err != nil {
						return err
					}
					return n.TreeBarrier(r, 30)
				})
				if err != nil {
					t.Fatal(err)
				}
				var wantAll []record.Key
				for i := 0; i < p; i++ {
					wantAll = append(wantAll, nodeKeys(i)...)
				}
				for i := 0; i < p; i++ {
					if fmt.Sprint(bcast[i]) != fmt.Sprint(payload) {
						t.Fatalf("node %d bcast %v", i, bcast[i])
					}
					if fmt.Sprint(allg[i]) != fmt.Sprint(wantAll) {
						t.Fatalf("node %d allgather %v, want %v", i, allg[i], wantAll)
					}
				}
			})
		}
	}
}

// TestTreeReduceSortedMerge folds sorted per-node slices with a 2-way
// merge; the root must see the sorted multiset union regardless of
// radix or cluster size.
func TestTreeReduceSortedMerge(t *testing.T) {
	merge := func(a, b []record.Key) ([]record.Key, error) {
		out := make([]record.Key, 0, len(a)+len(b))
		out = append(out, a...)
		out = append(out, b...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	for _, p := range []int{1, 2, 3, 7, 16} {
		for _, r := range []int{2, 5} {
			t.Run(fmt.Sprintf("p%d.r%d", p, r), func(t *testing.T) {
				slow := make([]float64, p)
				for i := range slow {
					slow[i] = 1
				}
				c := mustNew(t, slow...)
				got := make([][]record.Key, p)
				err := c.Run(func(n *Node) error {
					var err error
					got[n.ID()], err = n.TreeReduce(r, 40, nodeKeys(n.ID()), merge)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				var want []record.Key
				for i := 0; i < p; i++ {
					want = append(want, nodeKeys(i)...)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				if fmt.Sprint(got[0]) != fmt.Sprint(want) {
					t.Fatalf("root reduce %v, want %v", got[0], want)
				}
				for i := 1; i < p; i++ {
					if got[i] != nil {
						t.Fatalf("non-root %d returned %v", i, got[i])
					}
				}
			})
		}
	}
}

// TestTreeCollectivesBoundFanIn is the point of the exercise: at p=16
// the flat gather funnels 15 concurrent senders into node 0, while the
// radix-2 tree never queues more than node 0's ⌈log₂p⌉ children into
// it, whatever the goroutine schedule.  The flat half synchronises the
// senders with a real barrier so all 15 messages are provably queued
// at once (without it the root may drain early senders first).
func TestTreeCollectivesBoundFanIn(t *testing.T) {
	const p = 16
	slow := make([]float64, p)
	for i := range slow {
		slow[i] = 1
	}
	flat := mustNew(t, slow...)
	var sent sync.WaitGroup
	sent.Add(p - 1)
	if err := flat.Run(func(n *Node) error {
		if n.ID() != 0 {
			if err := n.Send(0, 1, nodeKeys(n.ID())); err != nil {
				return err
			}
			sent.Done()
			return nil
		}
		sent.Wait()
		for from := 1; from < p; from++ {
			if _, err := n.Recv(from, 1); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tree := mustNew(t, slow...)
	if err := tree.Run(func(n *Node) error {
		_, err := n.TreeGather(2, 1, nodeKeys(n.ID()))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	faninHWM := func(c *Cluster, id int) float64 {
		return c.Node(id).Metrics().Snapshot()[FanInHWMKey]
	}
	if got := faninHWM(flat, 0); got != p-1 {
		t.Fatalf("flat root fan-in HWM = %v, want %d", got, p-1)
	}
	var treeMax float64
	for i := 0; i < p; i++ {
		treeMax = max(treeMax, faninHWM(tree, i))
	}
	if treeMax >= faninHWM(flat, 0) {
		t.Fatalf("tree fan-in HWM %v not below flat %v", treeMax, faninHWM(flat, 0))
	}
	// Lazy links: the tree run must materialize far fewer than p² links.
	if created := tree.LinksCreated(); created >= p*p/2 {
		t.Fatalf("tree gather created %d links, expected well under %d", created, p*p)
	}
}
