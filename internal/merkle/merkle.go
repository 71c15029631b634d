// Package merkle builds Merkle trees over named artifacts, so one root
// hash anchors every file a sort run produced.  The service records the
// root of a job's artifacts (spec + per-node sorted partitions) when the
// job completes; `hetsortd verify` recomputes the tree from the daemon's
// store and compares roots, detecting any bit of drift in any
// artifact — including a missing or extra one, since the artifact *name*
// is hashed into its leaf.
//
// Construction is deterministic: leaves are sorted by name, leaf and
// interior hashes are domain-separated (a leaf can never be confused
// with an interior node), and an odd node is promoted unpaired to the
// next level (never duplicated, avoiding the classic CVE-2012-2459
// ambiguity).
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
	root Sum
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
	if len(ls) == 0 {
		return &Tree{root: EmptyRoot()}, nil
	}
	level := make([]Sum, len(ls))
	for i, l := range ls {
		level[i] = LeafHash(l)
	}
	for len(level) > 1 {
		// Each level overwrites the front of the one below: entry i/2
		// is written only after entries i and i+1 are read.
		next := level[:0]
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				// Odd node: promoted unpaired, never duplicated.
				next = append(next, level[i])
			}
		}
		level = next
	}
	return &Tree{root: level[0]}, nil
}

// Root returns the root hash (EmptyRoot for a leafless tree).
func (t *Tree) Root() Sum { return t.root }
