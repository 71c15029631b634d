// Package merkle builds Merkle trees over named artifacts, so one root
// hash anchors every file a sort run produced.  The service records the
// root of a job's artifacts (spec + per-node sorted partitions) when the
// job completes; `hetsortd verify` recomputes the tree from the storage
// backend and compares roots, detecting any bit of drift in any
// artifact — including a missing or extra one, since the artifact *name*
// is hashed into its leaf.
//
// Construction is deterministic: leaves are sorted by name, leaf and
// interior hashes are domain-separated (a leaf can never be confused
// with an interior node), and an odd node is promoted unpaired to the
// next level (never duplicated, avoiding the classic CVE-2012-2459
// ambiguity).  Audit proofs allow verifying a single artifact against
// the root without re-reading the others.
package merkle

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// HashSize is the size of every hash in the tree.
const HashSize = sha256.Size

// Sum is one SHA-256 hash.
type Sum = [HashSize]byte

// Domain-separation prefixes: a leaf hash and an interior hash can
// never collide, and the empty tree has its own tag.
const (
	tagLeaf  = 0x00
	tagNode  = 0x01
	tagEmpty = 0x02
)

// Leaf is one named artifact: its name and the SHA-256 of its content.
type Leaf struct {
	Name string
	Sum  Sum
}

// LeafHash returns the tree leaf hash of l: H(0x00 || len(name) ||
// name || contentSum).  Hashing the name binds the artifact's identity,
// so renaming (or swapping two same-content artifacts) changes the root.
func LeafHash(l Leaf) Sum {
	h := sha256.New()
	var pre [1 + binary.MaxVarintLen64]byte
	pre[0] = tagLeaf
	n := binary.PutUvarint(pre[1:], uint64(len(l.Name)))
	h.Write(pre[:1+n])
	h.Write([]byte(l.Name))
	h.Write(l.Sum[:])
	var out Sum
	h.Sum(out[:0])
	return out
}

func nodeHash(left, right Sum) Sum {
	h := sha256.New()
	h.Write([]byte{tagNode})
	h.Write(left[:])
	h.Write(right[:])
	var out Sum
	h.Sum(out[:0])
	return out
}

// EmptyRoot is the root of a tree with no leaves.
func EmptyRoot() Sum { return sha256.Sum256([]byte{tagEmpty}) }

// Tree is an immutable Merkle tree over a set of leaves.
type Tree struct {
	leaves []Leaf  // sorted by name
	levels [][]Sum // levels[0] = leaf hashes, last = [root]
}

// New builds the tree.  Leaves are copied and sorted by name; duplicate
// names are rejected (two artifacts cannot share an identity).
func New(leaves []Leaf) (*Tree, error) {
	ls := append([]Leaf(nil), leaves...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	for i := 1; i < len(ls); i++ {
		if ls[i].Name == ls[i-1].Name {
			return nil, fmt.Errorf("merkle: duplicate leaf name %q", ls[i].Name)
		}
	}
	t := &Tree{leaves: ls}
	level := make([]Sum, len(ls))
	for i, l := range ls {
		level[i] = LeafHash(l)
	}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]Sum, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				// Odd node: promoted unpaired, never duplicated.
				next = append(next, level[i])
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t, nil
}

// Root returns the root hash (EmptyRoot for a leafless tree).
func (t *Tree) Root() Sum {
	if len(t.leaves) == 0 {
		return EmptyRoot()
	}
	return t.levels[len(t.levels)-1][0]
}

// ProofStep is one sibling on the audit path from a leaf to the root.
type ProofStep struct {
	// Sum is the sibling subtree hash to combine with.
	Sum Sum
	// Left reports whether the sibling sits to the left of the running
	// hash (H(sibling || acc)) rather than to the right (H(acc || sibling)).
	Left bool
}

// Proof returns the audit path for the named leaf.
func (t *Tree) Proof(name string) ([]ProofStep, error) {
	idx := sort.Search(len(t.leaves), func(i int) bool { return t.leaves[i].Name >= name })
	if idx >= len(t.leaves) || t.leaves[idx].Name != name {
		return nil, fmt.Errorf("merkle: no leaf named %q", name)
	}
	var proof []ProofStep
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		sib := idx ^ 1
		if sib < len(level) {
			proof = append(proof, ProofStep{Sum: level[sib], Left: sib < idx})
		}
		// An odd promoted node keeps its hash and halves its index like
		// everyone else; it just contributes no step at this level.
		idx /= 2
	}
	return proof, nil
}

// VerifyProof replays an audit path: it recombines the leaf with the
// proof steps and reports whether the result equals root.
func VerifyProof(root Sum, leaf Leaf, proof []ProofStep) bool {
	acc := LeafHash(leaf)
	for _, st := range proof {
		if st.Left {
			acc = nodeHash(st.Sum, acc)
		} else {
			acc = nodeHash(acc, st.Sum)
		}
	}
	return acc == root
}
