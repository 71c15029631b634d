package merkle

import (
	"crypto/sha256"
	"testing"
)

func leaf(name, content string) Leaf {
	return Leaf{Name: name, Sum: sha256.Sum256([]byte(content))}
}

func mustTree(t *testing.T, leaves []Leaf) *Tree {
	t.Helper()
	tr, err := New(leaves)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRootDeterministicAndOrderIndependent(t *testing.T) {
	a := mustTree(t, []Leaf{leaf("a", "1"), leaf("b", "2"), leaf("c", "3")})
	b := mustTree(t, []Leaf{leaf("c", "3"), leaf("a", "1"), leaf("b", "2")})
	if a.Root() != b.Root() {
		t.Fatal("root depends on input order")
	}
}

func TestRootSensitivity(t *testing.T) {
	base := mustTree(t, []Leaf{leaf("a", "1"), leaf("b", "2")}).Root()
	cases := map[string]*Tree{
		"content changed": mustTree(t, []Leaf{leaf("a", "1"), leaf("b", "2!")}),
		"name changed":    mustTree(t, []Leaf{leaf("a", "1"), leaf("z", "2")}),
		"leaf added":      mustTree(t, []Leaf{leaf("a", "1"), leaf("b", "2"), leaf("c", "3")}),
		"leaf removed":    mustTree(t, []Leaf{leaf("a", "1")}),
		"names swapped":   mustTree(t, []Leaf{leaf("a", "2"), leaf("b", "1")}),
	}
	for what, tr := range cases {
		if tr.Root() == base {
			t.Errorf("%s: root unchanged", what)
		}
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	if _, err := New([]Leaf{leaf("a", "1"), leaf("a", "2")}); err == nil {
		t.Fatal("duplicate leaf name accepted")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	e := mustTree(t, nil)
	if e.Root() != EmptyRoot() {
		t.Fatal("empty tree root != EmptyRoot")
	}
	s := mustTree(t, []Leaf{leaf("only", "x")})
	if s.Root() != LeafHash(leaf("only", "x")) {
		t.Fatal("single-leaf root should be the leaf hash")
	}
	if s.Root() == e.Root() {
		t.Fatal("single-leaf root collides with empty root")
	}
}

func TestLeafVsInteriorDomainSeparation(t *testing.T) {
	// A two-leaf root must not equal any single leaf hash built from the
	// concatenated children (tagLeaf vs tagNode prefixes).
	l1, l2 := leaf("a", "1"), leaf("b", "2")
	tr := mustTree(t, []Leaf{l1, l2})
	h1, h2 := LeafHash(l1), LeafHash(l2)
	var concat []byte
	concat = append(concat, h1[:]...)
	concat = append(concat, h2[:]...)
	if tr.Root() == sha256.Sum256(concat) {
		t.Fatal("interior hash lacks domain separation")
	}
}

// TestOddNodePromoted pins the shape: an odd node rises unpaired, so
// three leaves hash as H(H(a,b), c), never H(H(a,b), H(c,c)).
func TestOddNodePromoted(t *testing.T) {
	a, b, c := leaf("a", "1"), leaf("b", "2"), leaf("c", "3")
	want := nodeHash(nodeHash(LeafHash(a), LeafHash(b)), LeafHash(c))
	if got := mustTree(t, []Leaf{c, b, a}).Root(); got != want {
		t.Fatal("three-leaf root is not H(H(a,b), c)")
	}
}
