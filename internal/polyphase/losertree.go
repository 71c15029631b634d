package polyphase

import (
	"errors"
	"io"

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
// also implements it receives the merge kernel's counters when a Merge
// finishes — emitted keys, emitted chunks, chunks that took the
// block-copy fast path (more than one key moved per tree replay), and
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
// is strictly below the climber's: a tie keeps the climber.
//
// The kernel also has a block-copy fast path.  In a min-tournament the
// runner-up must have lost its match directly against the winner, so it
// sits on the winner's root path; every buffered winner key ≤ that
// runner-up can be emitted as one chunk with no per-key tree work.  With
// k sources over B-key blocks the expected chunk is B/k keys, turning
// per-key heap traffic into per-chunk traffic.
//
// Compute is charged per chunk: the emitted keys (the copy/scan work)
// plus one replayed path (~2 ops per level for compare+swap).
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
// caller that merges many times.
type Merger struct {
	bases [][]record.Key
	pos   []int
	tree  []uint64
	out   batcher
}

// Merge is the package's Merge on m's buffers.
func (m *Merger) Merge(srcs []MergeSource, meter vtime.Meter, emit func([]record.Key) error) error {
	if meter == nil {
		meter = vtime.Nop{}
	}
	k := len(srcs)
	if k == 0 {
		return nil
	}
	// Kernel statistics, flushed once per Merge to the optional
	// observer (no per-chunk interface calls on the hot path).
	var oKeys, oChunks, oFast, oComps int64
	if obs, ok := meter.(MergeObserver); ok {
		defer func() { obs.ObserveMerge(oKeys, oChunks, oFast, oComps) }()
	}

	// k2 leaves, the smallest power of two ≥ k; padding leaves are
	// permanently drained ghosts.
	k2, levels := 1, 0
	for k2 < k {
		k2 *= 2
		levels++
	}
	// bases/pos mirror each source's Buffered() locally: bases[i] is
	// only rewritten after a Fill, and per-chunk consumption advances
	// the integer pos[i] — an int store, so the hot loop never writes a
	// pointer (no GC write barriers).
	if len(m.pos) < k2 {
		m.bases, m.pos, m.tree = make([][]record.Key, k2), make([]int, k2), make([]uint64, 2*k2)
	}
	bases, pos, tree := m.bases[:k2], m.pos[:k2], m.tree[:2*k2]
	clear(bases)
	clear(pos)
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
	oComps += int64(k2 - 1) // one match per internal node to build

	// Compute charges are batched in pending and flushed before every
	// Fill call and on return: the virtual clock is only observed at
	// those interaction points (Fill may Recv or do charged I/O), so
	// batching between them cannot change any cross-node timing.
	var pending int64
	out := &m.out
	out.emit, out.n = emit, 0
	for {
		if tree[0]>>srcBits == drained {
			err := out.flush()
			meter.ChargeCompute(pending)
			return err
		}
		w := int(tree[0] & srcMask)
		// The runner-up is the least head among the losers stored on
		// the winner's root path (it lost directly to the winner).
		second := ^uint64(0)
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
		if err := out.put(buf[:cnt]); err != nil {
			meter.ChargeCompute(pending)
			return err
		}
		pending += int64(cnt) + int64(2*levels) + 1
		oKeys += int64(cnt)
		oChunks++
		if cnt > 1 {
			oFast++ // block-copy fast path: a multi-key chunk per replay
		}
		oComps += int64(2 * levels) // runner-up scan + path replay
		pos[w] += cnt
		// A used-up buffer goes back to its source, after the batch and
		// the compute so far, and the next is fetched.  Multi-block
		// galloping: while the fresh block still sits entirely at or
		// below the runner-up, it is emitted whole for a single guide
		// comparison — an exponential-search style winner run that moves
		// several blocks per tree replay.  The Fill sequence (and hence
		// the PDM I/O schedule) is exactly what the chunk-at-a-time path
		// would have issued.
		for pos[w] == len(bases[w]) {
			err := out.flush()
			meter.ChargeCompute(pending)
			pending = 0
			if err != nil {
				return err
			}
			srcs[w].Discard(pos[w])
			bases[w], pos[w] = nil, 0
			switch err := srcs[w].Fill(); err {
			case nil:
				if bases[w] = srcs[w].Buffered(); len(bases[w]) == 0 {
					return errEmptyFill
				}
			case io.EOF:
			default:
				return err
			}
			b := bases[w]
			if len(b) == 0 || uint64(b[len(b)-1]) > second {
				break
			}
			if err := out.put(b); err != nil {
				return err
			}
			pending += int64(len(b)) + 1 // copy work + the guide comparison
			oKeys += int64(len(b))
			oChunks++
			oFast++
			oComps++
			pos[w] = len(b)
		}
		// Replay the winner's path with its new head: the test is
		// t>>srcBits < x>>srcBits, a select compiled to CMOVs.
		x := slot(bases[w], pos[w], w)
		for j := (k2 + w) >> 1; j >= 1; j >>= 1 {
			t := tree[j]
			if t|srcMask < x&^srcMask {
				t, x = x, t
			}
			tree[j] = t
		}
		tree[0] = x
	}
}

// batcher is Merge's output batch.
type batcher struct {
	keys [batchKeys]record.Key
	n    int
	emit func([]record.Key) error
}

// put passes on a chunk of a source's buffer: copied into the batch, or,
// when it is larger than the batch, emitted as it is after the batch.
func (b *batcher) put(c []record.Key) error {
	if b.n+len(c) > batchKeys {
		if err := b.flush(); err != nil {
			return err
		}
		if len(c) > batchKeys {
			return b.emit(c)
		}
	}
	b.n += copy(b.keys[b.n:], c)
	return nil
}

// flush hands the batch to emit.
func (b *batcher) flush() error {
	if b.n == 0 {
		return nil
	}
	err := b.emit(b.keys[:b.n])
	b.n = 0
	return err
}
