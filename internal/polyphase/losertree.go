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

// exhausted is the sentinel head for a drained source; it compares
// greater than any 32-bit key, so a drained source never wins a match.
const exhausted = ^uint64(0)

var errEmptyFill = errors.New("polyphase: merge source Fill made no keys available")

// batchKeys is the capacity of Merge's output batch.
const batchKeys = 1024

// Merge streams the sorted sources into emit in ascending key order
// using a tournament ("loser") tree: tree[j] holds the loser of the
// match at internal node j, tree[0] the overall winner, so advancing
// the winner replays exactly one leaf-to-root path — ceil(log2 k)
// comparisons, against ~2·log2 k for a binary heap's sift.
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
	// permanently exhausted ghosts.
	k2, levels := 1, 0
	for k2 < k {
		k2 *= 2
		levels++
	}
	// bases/pos mirror each source's Buffered() locally: bases[i] is
	// only rewritten after a Fill, and per-chunk consumption advances
	// the integer pos[i] — an int store, so the hot loop never writes a
	// pointer (no GC write barriers).
	heads := make([]uint64, k2)
	bases := make([][]record.Key, k)
	pos := make([]int, k)
	active := 0
	for i := range heads {
		heads[i] = exhausted
		if i >= k {
			continue
		}
		if len(srcs[i].Buffered()) == 0 {
			switch err := srcs[i].Fill(); err {
			case nil:
			case io.EOF:
				continue
			default:
				return err
			}
		}
		if bases[i] = srcs[i].Buffered(); len(bases[i]) > 0 {
			heads[i] = uint64(bases[i][0])
			active++
		}
	}
	if active == 0 {
		return nil
	}

	// Build: play every match once, recording losers.
	winner := make([]int, 2*k2)
	tree := make([]int, k2) // tree[j]: loser at node j; tree[0]: winner
	for i := 0; i < k2; i++ {
		winner[k2+i] = i
	}
	for j := k2 - 1; j >= 1; j-- {
		a, b := winner[2*j], winner[2*j+1]
		if heads[a] <= heads[b] {
			winner[j], tree[j] = a, b
		} else {
			winner[j], tree[j] = b, a
		}
	}
	tree[0] = winner[1]
	meter.ChargeCompute(int64(k2))
	oComps += int64(k2 - 1) // one match per internal node to build

	// Compute charges are batched in pending and flushed before every
	// Fill call and on return: the virtual clock is only observed at
	// those interaction points (Fill may Recv or do charged I/O), so
	// batching between them cannot change any cross-node timing.
	var pending int64
	out := &batcher{emit: emit}
	for {
		w := tree[0]
		if heads[w] == exhausted {
			err := out.flush()
			meter.ChargeCompute(pending)
			return err
		}
		// The runner-up is the least head among the losers stored on
		// the winner's root path (it lost directly to the winner).
		second := exhausted
		for j := (k2 + w) >> 1; j >= 1; j >>= 1 {
			if h := heads[tree[j]]; h < second {
				second = h
			}
		}
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
		if pos[w] < len(bases[w]) {
			heads[w] = uint64(bases[w][pos[w]])
		} else {
			heads[w] = exhausted
		}
		// Replay the winner's path with its new head.
		x := w
		for j := (k2 + w) >> 1; j >= 1; j >>= 1 {
			if heads[tree[j]] < heads[x] {
				tree[j], x = x, tree[j]
			}
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
