package extsort

import (
	"errors"
	"io"
	"sort"

	"hetsort/internal/diskio"
	"hetsort/internal/histsort"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
)

// sortedIndex is what step 1 leaves beside the sorted file.  Step 2's
// one-shot sample positions are fixed before step 1 starts, and step 1
// writes every key once, in order, so its writer keeps the keys at those
// positions and the first key of every block, the fences.
type sortedIndex struct {
	keys, block int64        // l_i, B
	at          []int64      // the sampler's positions, ascending
	samples     []record.Key // samples[j] is the key at at[j]
	// fences[b] is the key at b·B; nil (every rank query scans) when fences
	// and samples do not fit in the M − T·B keys the final merge leaves free.
	fences []record.Key
	fence  int64 // the next fence position the run being written reaches
	next   int   // and the next sample
}

// newIndex sizes the index of a sorted file as long as the named one: the
// one-shot sampler's positions (none for the sketch and the histogram)
// and, memory permitting, one fence per block.
func (w *worker) newIndex(name string) (*sortedIndex, error) {
	li, err := diskio.CountKeys(w.n.FS(), name)
	if err != nil {
		return nil, err
	}
	cfg, id, p := w.cfg, w.n.ID(), w.n.P()
	x := &sortedIndex{keys: li, block: int64(cfg.BlockKeys)}
	switch {
	case li <= 0 || p == 1:
	case cfg.Strategy == RegularSampling:
		spacing, _, err := sampling.HeteroSpacing(id, li, cfg.Perf[id], p)
		if spErr := (*sampling.SpacingError)(nil); errors.As(err, &spErr) {
			spacing = 1 // portion too small for regular spacing: sample every key
		} else if err != nil {
			return nil, err
		}
		x.at = sampling.RegularSampleIndices(li, spacing)
	case cfg.Strategy == RandomPivots:
		x.at = sampling.RandomSampleIndices(li, (p-1)*cfg.Perf[id], cfg.Seed+int64(id)*101)
	}
	x.samples = make([]record.Key, len(x.at))
	if fences := (li + x.block - 1) / x.block; fences+int64(len(x.at)) <= int64(cfg.MemoryKeys-cfg.Tapes*cfg.BlockKeys) {
		x.fences = make([]record.Key, fences)
	}
	return x, nil
}

// observe records keys, a chunk written at position off (a run's chunks
// arrive in order from 0).  The sorted file is the last run written and
// covers every position, so it overwrites the runs before it.
func (x *sortedIndex) observe(off int64, keys []record.Key) {
	if off == 0 {
		x.fence, x.next = 0, 0
	}
	end := off + int64(len(keys))
	for ; x.fences != nil && x.fence < end; x.fence += x.block {
		x.fences[x.fence/x.block] = keys[x.fence-off]
	}
	for ; x.next < len(x.at) && x.at[x.next] < end; x.next++ {
		x.samples[x.next] = keys[x.at[x.next]-off]
	}
}

// sortedIndex returns the index step 1 left or, on a node resumed past
// step 1 (the index dies with a crash), one rebuilt by a charged scan.
func (w *worker) sortedIndex() (*sortedIndex, error) {
	if w.index != nil {
		return w.index, nil
	}
	x, err := w.newIndex(sortedName)
	if err == nil && (len(x.at) > 0 || len(x.fences) > 0) {
		var off int64
		err = w.scanSorted(w.acct(), func(keys []record.Key) {
			x.observe(off, keys)
			off += int64(len(keys))
		})
	}
	w.index = x // a failed rebuild fails the run
	return x, err
}

// ranks answers local rank queries: for each ascending query q, how
// many keys of the sorted file are ≤ q, the largest of them and the
// smallest key above q (histsort.Count; a side with no key reports the
// neutral 0, resp. the top key).  From the fences it is a binary search,
// then a seek and a block read per distinct block the ranks end in,
// synchronously charged (one compute op per key read, as a scan
// charges).  It scans the file instead (scanRanks), on acct, without
// fences or when those probes price at least the scan on the node's cost
// model, read from no clock: overlap and D never change it.
func (w *worker) ranks(qs []record.Key, acct diskio.Accounting) ([]histsort.Count, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	x, err := w.sortedIndex()
	if err != nil {
		return nil, err
	}
	// blk[j] is the block query j's rank ends in, -1 below the first key.
	// Like scanRanks, the queries are read as their running maximum.
	blk := make([]int64, len(qs))
	probes, q := 0.0, record.Key(0)
	for j := range qs {
		q = max(q, qs[j])
		blk[j] = int64(sort.Search(len(x.fences), func(b int) bool { return x.fences[b] > q })) - 1
		if blk[j] >= 0 && (j == 0 || blk[j] != blk[j-1]) {
			probes++
		}
	}
	cm := w.n.Cost()
	block := float64(x.block) * cm.IOBlockSecPerKey
	if x.fences == nil || probes*(cm.SeekSec+block) >= float64(len(x.fences))*block {
		return w.scanRanks(qs, acct)
	}
	f, err := w.n.FS().Open(sortedName)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]histsort.Count, len(qs))
	acct, raw, keys := w.n.Acct(), make([]byte, x.block*record.KeySize), make([]record.Key, 0, x.block)
	q = 0
	for j, b := range blk {
		q = max(q, qs[j])
		// The smallest key above q opens the block after the rank's.
		out[j].Succ = noKey
		if int(b+1) < len(x.fences) {
			out[j].Succ = x.fences[b+1]
		}
		if b < 0 {
			continue
		}
		if j == 0 || b != blk[j-1] { // probe block b: a seek and a block read
			off, cnt := b*x.block*record.KeySize, min(x.block, x.keys-b*x.block)
			if _, err := f.Seek(off, io.SeekStart); err != nil {
				return nil, err
			}
			if _, err := io.ReadFull(f, raw[:cnt*record.KeySize]); err != nil {
				return nil, err
			}
			acct.ChargeSeek(off, 1)
			acct.ChargeRead(off, 1)
			w.n.ChargeCompute(cnt)
			keys = record.DecodeKeys(keys[:0], raw[:cnt*record.KeySize])
		}
		i := sort.Search(len(keys), func(i int) bool { return keys[i] > q }) // ≥ 1: the fence is ≤ q
		out[j].N, out[j].Pred = b*x.block+int64(i), keys[i-1]
		if i < len(keys) {
			out[j].Succ = keys[i]
		}
	}
	return out, nil
}

// noKey is what a rank query reports as the key above it when there is
// none: the top key, neutral under the histogram's min.
const noKey = ^record.Key(0)
