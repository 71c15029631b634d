// Package polyphase implements the sequential external sorts the paper
// uses: polyphase merge sort (Knuth, The Art of Computer Programming
// vol. 3, §5.4.2) for step 1 of Algorithm 1, and a balanced k-way
// external merge used for the final merge of already-sorted partition
// files (step 5) and as a baseline.
//
// Polyphase merging "uses 2m files to get a 2m-1 way merge without a
// separate redistribution of runs after every pass", as the paper puts
// it: runs are distributed over T-1 tapes following the generalized
// Fibonacci ("perfect") distribution, padded with dummy runs, and each
// merge phase runs until one tape empties and becomes the next output.
package polyphase

import (
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// A selectionItem is an entry of the replacement-selection heap, one
// word: the run generation in the high half, the key in the low half, so
// that integer order is (run, key) order and keys of the current run sort
// before keys demoted to the next.
type selectionItem = uint64

// maxSelectionRun is the largest run number an item can carry.
const maxSelectionRun = 1<<32 - 1

func packItem(run uint64, key record.Key) selectionItem { return run<<32 | uint64(key) }

func itemRun(it selectionItem) uint64     { return it >> 32 }
func itemKey(it selectionItem) record.Key { return record.Key(it) }

// selectionSentinel sits one slot past the last item, so that the sift
// may read the right child of a node that has only a left one: no item is
// greater, and the strict comparison never prefers it.
const selectionSentinel = ^selectionItem(0)

// selectionHeap is a binary min-heap of selectionItems for replacement
// selection, 1-based: items[1..n], so a node's children are an aligned
// pair and its eight descendants three levels down one aligned 64-byte
// line.  The sifts move a hole instead of swapping, but visit the levels
// and take the ties (left child first) of the textbook sift, and charge
// what it would: two comparisons per level visited on the way down, one
// on the way up, plus one.  The levels visited are the depth the moved
// item comes to rest at, plus one.
type selectionHeap struct {
	items []selectionItem // items[0] unused; cap > len: the sentinel is at items[:len+1][len]
	ahead selectionItem   // folds siftDown's look-ahead loads, so none is dropped
	meter vtime.Meter
}

func newSelectionHeap(capacity int, meter vtime.Meter) *selectionHeap {
	if meter == nil {
		meter = vtime.Nop{}
	}
	return &selectionHeap{items: make([]selectionItem, 1, capacity+2), meter: meter}
}

func (h *selectionHeap) len() int { return len(h.items) - 1 }

func (h *selectionHeap) push(it selectionItem) {
	i := len(h.items)
	h.items = append(h.items, it, selectionSentinel)[:i+1]
	items := h.items
	var ops int64
	for i > 1 {
		parent := i / 2
		ops++
		if it >= items[parent] {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = it
	h.meter.ChargeCompute(ops + 1)
}

func (h *selectionHeap) peek() selectionItem { return h.items[1] }

func (h *selectionHeap) pop() selectionItem {
	top := h.items[1]
	last := len(h.items) - 1
	it := h.items[last]
	h.items[last] = selectionSentinel
	h.items = h.items[:last]
	h.siftDown(it)
	return top
}

func (h *selectionHeap) replaceTop(it selectionItem) { h.siftDown(it) }

// siftDown puts it where the root's hole comes to rest.
func (h *selectionHeap) siftDown(it selectionItem) {
	n := h.len()
	items := h.items[:n+2]
	i, levels, ahead := 1, int64(1), h.ahead
	for c := 2; c <= n; c = 2 * i {
		// Load the line of i's descendants three levels down, which the
		// descent reaches two levels on, while this level's compare
		// resolves.  Go keeps load addresses off CMOV, so the clamp is a
		// branch; a branchless one measured no faster.
		ahead ^= items[min(8*i, n)]
		// The smaller child, the left one on a tie.  Which one it is is a
		// coin toss on random keys, so it is computed (min and a 0/1 the
		// compiler sets without a jump), not branched on.
		l, r := items[c], items[c+1]
		child := min(l, r)
		right := 0
		if r < l {
			right = 1
		}
		c += right
		if child >= it {
			break
		}
		items[i] = child
		i = c
		levels++
	}
	if n > 0 {
		items[i] = it
	}
	h.ahead = ahead
	h.meter.ChargeCompute(2*levels + 1)
}
