package polyphase

import (
	"errors"
	"io"
	"math/bits"

	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// MergeSource is a sorted key stream that exposes its current in-memory
// block to the merge kernel, so the kernel can move whole chunks instead
// of single keys.  diskio.Reader implements it for file-backed runs and
// cluster.Stream for in-flight redistribution messages.
type MergeSource interface {
	// Buffered returns the keys decoded and not yet consumed.  The
	// slice stays valid until the next Discard or Fill call.
	Buffered() []record.Key
	// Discard consumes the first n buffered keys; the keys that remain
	// buffered are exactly Buffered()[n:] from before the call.
	Discard(n int)
	// Fill makes at least one key available when the buffer is empty.
	// It returns io.EOF once the source is exhausted.  The kernel only
	// calls it with an empty buffer.
	Fill() error
}

// MergeObserver is an optional extension of vtime.Meter: a meter that
// also implements it receives the merge kernel's counters when a merge
// drains — emitted keys, emitted chunks, chunks of more than one key
// (the block-copy fast path's, priced as one replay), and the priced
// tournament-tree comparisons.  cluster.Node implements it to feed the
// per-node metrics registry; the int64-only signature keeps this package
// free of a metrics dependency.
type MergeObserver interface {
	ObserveMerge(keys, chunks, fastChunks, comparisons int64)
}

// A tree slot is one word, head<<srcBits | src: a 33-bit head over a
// 31-bit source index.  A drained source's head is drained, above every
// 32-bit key (0xFFFFFFFF included), so it never wins a match.
const (
	srcBits = 31
	srcMask = 1<<srcBits - 1
	drained = 1 << 32
)

// slot is the tree word of source i whose buffer b is consumed up to p.
func slot(b []record.Key, p, i int) uint64 {
	h := uint64(drained)
	if p < len(b) {
		h = uint64(b[p])
	}
	return h<<srcBits | uint64(i)
}

var errEmptyFill = errors.New("polyphase: merge source Fill made no keys available")

// batchKeys is the capacity of Merge's output batch.
const batchKeys = 1024

// Merge streams the sorted sources into emit in ascending key order
// using a tournament ("loser") tree: tree[j] holds the slot word of the
// loser of the match at internal node j, tree[0] the overall winner's,
// so advancing the winner replays exactly one leaf-to-root path —
// ceil(log2 k) comparisons, against ~2·log2 k for a binary heap's sift.
// A slot carries its head, so neither the runner-up scan nor the replay
// looks anything up.  The replay swaps only when a stored loser's head
// is strictly below the climber's (a tie keeps the climber), by an
// xor-mask select with no jump on the keys.
//
// A chunk is the winner's keys up to the runner-up, which lost directly
// to the winner and so sits on its root path.  A short chunk is played a
// key at a time: the winner's head goes out and its path is replayed
// with its next key, until that changes the winner.  At laneKeys keys, a
// buffer's last key or a full batch the chunk goes back whole to the
// block-copy path, which emits every buffered winner key ≤ the runner-up
// for one path scan and one replay (a banded chunk over k sources and
// B-key blocks is ~B/k keys); after a long chunk the next goes there
// directly.  The chunks are the same either way, and compute is charged
// per chunk, whatever the host replayed: the emitted keys (the copy/scan
// work) plus one replayed path (~2 ops per level for compare+swap).
//
// emit receives the output in batches, not chunks: on interleaved input
// a chunk is a key or two, and a call per chunk cost more than the tree
// work.  Chunks are copied into a batch that is flushed before every
// Fill and on return, so between any two Fills emit receives exactly
// the keys it would have chunk by chunk, and what it charges (block
// writes) falls between the same compute charges.  A chunk larger than
// the batch goes out as it is.  A source hears what was consumed in one
// Discard, before its next Fill.  emit must not retain what it
// receives.  A nil meter charges nothing.
func Merge(srcs []MergeSource, meter vtime.Meter, emit func([]record.Key) error) error {
	return new(Merger).Merge(srcs, meter, emit)
}

// A Merger is Merge keeping its tree and batch for the next call, for a
// caller that merges many times.  After Reset it is Merge's pull form, a
// MergeSource whose Fill runs the kernel to the batch Merge would emit
// next: one Merger can be a single leaf of another's tree.
type Merger struct {
	srcs  []MergeSource
	meter vtime.Meter
	bases [][]record.Key
	pos   []int
	tree  []uint64

	at      int      // where next resumes
	w       int      // the winner in play
	second  uint64   // its runner-up's head
	cnt     int      // the chunk path's last chunk: past laneKeys, the lane waits
	pending int64    // compute not yet charged
	obs     [4]int64 // the observer's counters: keys, chunks, fast chunks, comparisons

	keys [batchKeys]record.Key // the batch, keys[:n]
	n    int
	cur  []record.Key // the pull form's batch, not yet discarded
}

// next's resume points.
const (
	atTop    = iota // play the next chunk
	atPlay          // replay the winner's path, then play the next chunk
	atRefill        // the winner's buffer is used up and the batch before it out
	atEnd           // every source is drained and the batch out
)

// Merge is the package's Merge on m's buffers: the pull form drained
// into emit.
func (m *Merger) Merge(srcs []MergeSource, meter vtime.Meter, emit func([]record.Key) error) error {
	err := m.Reset(srcs, meter)
	for b := []record.Key(nil); err == nil; {
		if b, err = m.next(); err == nil {
			err = emit(b)
		} else if err == io.EOF {
			return nil
		}
	}
	return err
}

// Reset starts a merge of srcs on meter: it fills the sources and plays
// the tree's first matches.  A nil meter charges nothing.
func (m *Merger) Reset(srcs []MergeSource, meter vtime.Meter) error {
	if meter == nil {
		meter = vtime.Nop{}
	}
	m.srcs, m.meter, m.at = append(m.srcs[:0], srcs...), meter, atEnd
	m.pending, m.obs, m.n, m.cnt, m.cur = 0, [4]int64{}, 0, 0, nil
	if len(srcs) == 0 {
		return nil
	}
	// k2 leaves, the smallest power of two ≥ k; padding leaves are
	// permanently drained ghosts.
	k2 := 1 << bits.Len(uint(len(srcs)-1))
	// bases/pos mirror each source's Buffered() locally: bases[i] is
	// only rewritten after a Fill, and per-chunk consumption advances
	// the integer pos[i] — an int store, so the hot loop never writes a
	// pointer (no GC write barriers).
	if cap(m.pos) < k2 {
		m.bases, m.pos, m.tree = make([][]record.Key, k2), make([]int, k2), make([]uint64, 2*k2)
	}
	m.bases, m.pos, m.tree = m.bases[:k2], m.pos[:k2], m.tree[:2*k2]
	bases, tree := m.bases, m.tree
	clear(bases)
	clear(m.pos)
	for i, src := range srcs {
		if len(src.Buffered()) == 0 {
			if err := src.Fill(); err != nil && err != io.EOF {
				return err
			}
		}
		bases[i] = src.Buffered() // empty after io.EOF
	}

	// Build: play every match once, on whole words (a tie goes to the
	// left source).  Leaf i is tree[k2+i]; the bottom-up pass leaves each
	// node's winner in tree[j], the top-down pass its loser.
	for i := range k2 {
		tree[k2+i] = slot(bases[i], 0, i)
	}
	for j := k2 - 1; j >= 1; j-- {
		tree[j] = min(tree[2*j], tree[2*j+1])
	}
	tree[0] = tree[1]
	for j := 1; j < k2; j++ {
		tree[j] = max(tree[2*j], tree[2*j+1])
	}
	if tree[0]>>srcBits == drained {
		return nil // every source was empty
	}
	meter.ChargeCompute(int64(k2))
	m.obs[3] = int64(k2 - 1) // one match per internal node to build
	m.at = atTop
	return nil
}

// Buffered returns the pull form's batch not yet discarded.
func (m *Merger) Buffered() []record.Key { return m.cur }

// Discard consumes the first n keys of the batch.
func (m *Merger) Discard(n int) { m.cur = m.cur[n:] }

// Fill runs the merge to its next batch and charges the compute spent on
// it before handing it out, so what the caller does next (a Recv) sees
// the clock Merge would have left.  It returns io.EOF after the last.
func (m *Merger) Fill() error {
	b, err := m.next()
	m.meter.ChargeCompute(m.pending)
	m.pending, m.cur = 0, b
	return err
}

// next runs the kernel to the next batch Merge emits, or to io.EOF.
//
// Compute charges are batched in pending and flushed before every
// source's Fill and at the end: the virtual clock is only observed at
// those interaction points (Fill may Recv or do charged I/O), so
// batching between them cannot change any cross-node timing.
func (m *Merger) next() (out []record.Key, err error) {
	for out == nil && err == nil {
		switch w := m.w; m.at {
		case atTop, atPlay:
			out = m.play()
		case atRefill:
			// A used-up buffer goes back to its source, after the batch
			// and the compute so far, and the next is fetched.
			m.meter.ChargeCompute(m.pending)
			m.pending = 0
			m.srcs[w].Discard(m.pos[w])
			m.bases[w], m.pos[w] = nil, 0
			switch err = m.srcs[w].Fill(); err {
			case nil:
				if m.bases[w] = m.srcs[w].Buffered(); len(m.bases[w]) == 0 {
					err = errEmptyFill
				}
			case io.EOF:
				err = nil
			}
			// Multi-block galloping: while the fresh block still sits
			// entirely at or below the runner-up, it is emitted whole for
			// a single guide comparison — an exponential-search style
			// winner run that moves several blocks per tree replay.  The
			// Fill sequence (and hence the PDM I/O schedule) is exactly
			// what the chunk-at-a-time path would have issued.  The batch
			// is empty, so the block goes out as it is.
			b := m.bases[w]
			switch {
			case err != nil:
			case len(b) > 0 && uint64(b[len(b)-1]) <= m.second:
				m.pending += int64(len(b)) + 1 // copy work + the guide comparison
				m.obs = [4]int64{m.obs[0] + int64(len(b)), m.obs[1] + 1, m.obs[2] + 1, m.obs[3] + 1}
				m.pos[w], out = len(b), b
			default:
				out = m.play()
			}
		case atEnd: // again after io.EOF, with nothing left to charge or count
			m.meter.ChargeCompute(m.pending)
			if o, ok := m.meter.(MergeObserver); ok {
				o.ObserveMerge(m.obs[0], m.obs[1], m.obs[2], m.obs[3])
			}
			m.pending, m.obs, err = 0, [4]int64{}, io.EOF
		}
	}
	return out, err
}

// laneKeys is the longest chunk play's per-key lane closes itself.
const laneKeys = 4

// climb replays the path above tree node j with the climbing word x,
// leaves the winner in tree[0] and returns it.  A stored loser whose head
// is strictly below x's swaps with it (a tie keeps x): as x's index is at
// most srcMask, t|srcMask < x compares the heads alone.  The swap is an
// xor-mask select, so no jump depends on the keys.
func climb(tree []uint64, j int, x uint64) uint64 {
	for ; j >= 1; j >>= 1 {
		t := tree[j]
		_, lt := bits.Sub64(t|srcMask, x, 0) // 1 if t|srcMask < x, else 0
		d := (t ^ x) & -lt
		tree[j], x = t^d, x^d
	}
	tree[0] = x
	return x
}

// lane plays chunks a key at a time from the winner w, n keys batched, as
// Merge describes.  No stored loser moves within a chunk, so handing the
// open chunk back only rewinds pos[w] and n: lane returns the winner and
// the batch's length there.
func (m *Merger) lane(w, n int) (int, int) {
	bases, pos, tree, k2, n0 := m.bases, m.pos, m.tree, len(m.bases), n
	var chunks, fast int
	for c := 0; ; {
		b, p := bases[w], pos[w]
		if c == laneKeys || p+1 == len(b) || n == batchKeys {
			pos[w], n = p-c, n-c
			m.obs[0], m.obs[1], m.obs[2] = m.obs[0]+int64(n-n0), m.obs[1]+int64(chunks), m.obs[2]+int64(fast)
			return w, n
		}
		m.keys[n], pos[w] = b[p], p+1
		n++
		x := int(climb(tree, (k2+w)>>1, uint64(b[p+1])<<srcBits|uint64(w)) & srcMask)
		closed := 0
		if x != w { // whether the chunk closed is a coin toss: a SETNE, no jump
			closed = 1
		}
		chunks, fast, c, w = chunks+closed, fast+closed&min(c, 1), (c+1)&(closed-1), x
	}
}

// play is the kernel's hot loop: it replays the winner's path with its
// new head (but at atTop) and plays the next chunk, until there is a
// batch to hand out, and leaves m.at where next resumes.  The hot state
// lives in locals and goes back to m on the way out.
func (m *Merger) play() (out []record.Key) {
	bases, pos, tree, k2, w, second, n := m.bases, m.pos, m.tree, len(m.bases), m.w, m.second, m.n
	keys, chunks := m.obs[0], m.obs[1] // what this call plays follows from the counters
	for replay := m.at != atTop; ; replay = true {
		if replay {
			climb(tree, (k2+w)>>1, slot(bases[w], pos[w], w))
		}
		if tree[0]>>srcBits == drained {
			m.at = atEnd
			if n > 0 {
				out, n = m.keys[:n], 0
			}
			break
		}
		if w = int(tree[0] & srcMask); m.cnt <= laneKeys { // after a long chunk the next goes straight to the chunk path
			w, n = m.lane(w, n)
		}
		// The runner-up is the least head among the losers stored on the
		// winner's root path (it lost directly to the winner).
		second = ^uint64(0)
		for j := (k2 + w) >> 1; j >= 1; j >>= 1 {
			second = min(second, tree[j])
		}
		second >>= srcBits
		buf := bases[w][pos[w]:]
		var cnt int
		switch {
		case len(buf) == 1 || uint64(buf[1]) > second:
			cnt = 1 // tight interleaving: the winner yields one key
		case uint64(buf[len(buf)-1]) <= second:
			cnt = len(buf) // whole block below the contender
		default:
			// buf[1] <= second < buf[len-1]: first index > second.
			lo, hi := 2, len(buf)-1
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if uint64(buf[mid]) <= second {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			cnt = lo
		}
		if n > 0 && n+cnt > batchKeys {
			// The batch goes out first; the chunk is played again into
			// the empty one (the tree has not moved).
			m.at, out, n = atTop, m.keys[:n], 0
			break
		}
		m.obs[0], m.obs[1], m.obs[2] = m.obs[0]+int64(cnt), m.obs[1]+1, m.obs[2]+int64(min(cnt-1, 1))
		pos[w], m.cnt = pos[w]+cnt, cnt
		switch {
		case cnt == 1: // most chunks: no copy call
			m.keys[n] = buf[0]
			n++
		case cnt > batchKeys:
			out = buf[:cnt] // larger than the batch: it goes out as it is
		default:
			n += copy(m.keys[n:], buf[:cnt])
		}
		if pos[w] == len(bases[w]) {
			// A used-up buffer: the batch goes out before its Fill.
			m.at = atRefill
			if out == nil {
				out, n = m.keys[:n], 0
			}
			break
		}
		if out != nil {
			m.at = atPlay
			break
		}
	}
	// A chunk's compute is its keys and one replayed path, ~2 ops per
	// level for the runner-up scan and the replay, plus one.
	levels := int64(bits.Len(uint(k2 - 1)))
	keys, chunks = m.obs[0]-keys, m.obs[1]-chunks
	m.w, m.second, m.n, m.pending = w, second, n, m.pending+keys+(2*levels+1)*chunks
	m.obs[3] += 2 * levels * chunks
	return out
}
