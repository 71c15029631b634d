package extsort

import (
	"sort"

	"hetsort/internal/diskio"
	"hetsort/internal/histsort"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
	"hetsort/internal/vtime"
)

// sortedIndex is what step 1 leaves beside its runs (worker.runs).  Step
// 2's one-shot sample positions are fixed before step 1 starts, and step
// 1 writes every key of a run once, in order, so its writer keeps the
// first key of every block of every run, the fences, and the keys at the
// sample positions of the last run written — the sorted file's; over
// several runs the samples are selected instead (selectSamples).
type sortedIndex struct {
	block   int64            // B
	runs    []diskio.Section // step 1's runs
	at      []int64          // the sampler's positions in the runs' merged order, ascending
	samples []record.Key     // samples[j] is the key at at[j]
	// fences[r][b] is the key at b·B of run r; nil (every rank query
	// scans) unless fit: fences and samples fit in the M − T·B keys the
	// final merge leaves free.
	fences [][]record.Key
	fit    bool
	// While step 1 writes, arena holds the fences of the run being
	// written or, with live set, of every run, from where live says: the
	// last entry of a run (its tape and start) wins.
	arena []record.Key
	live  []liveRun
	fence int64 // the next fence position the run being written reaches
	next  int   // and the next sample
}

// liveRun is where the fences of the run at a tape's start sit in the arena.
type liveRun struct {
	run diskio.Section
	at  int
}

// newIndex sizes the index of li sorted keys: the one-shot sampler's
// positions (none for the histogram) and, memory permitting, one fence
// per block, and one more per run over runs.
func (w *worker) newIndex(li int64, runs bool) *sortedIndex {
	cfg, id, p := w.cfg, w.n.ID(), w.n.P()
	x := &sortedIndex{block: int64(cfg.BlockKeys)}
	switch {
	case li <= 0 || p == 1:
	case cfg.Strategy == RegularSampling:
		x.at = sampling.RegularPositions(li, int64(p*cfg.Perf[id]))
	case cfg.Strategy == RandomPivots:
		x.at = sampling.RandomSampleIndices(li, (p-1)*cfg.Perf[id], cfg.Seed+int64(id)*101)
	}
	x.samples = make([]record.Key, len(x.at))
	fences := (li + x.block - 1) / x.block
	arena := fences
	if runs { // the arena holds the fences of the formed runs and of the merged ones
		x.live, arena = make([]liveRun, 0, 8*cfg.Tapes), 2*fences
		fences += int64(cfg.Tapes - 1)
	}
	if x.fit = fences+int64(len(x.at)) <= int64(cfg.MemoryKeys-cfg.Tapes*cfg.BlockKeys); x.fit {
		x.arena = make([]record.Key, 0, arena)
	}
	return x
}

// observe is step 1's polyphase.Observer: keys is a chunk of the run that
// starts at key start of tape, at offset off of the run (a run's chunks
// arrive in order from 0).  The sorted file is the last run written.
func (x *sortedIndex) observe(tape string, start, off int64, keys []record.Key) {
	if off == 0 {
		x.fence, x.next = 0, 0
		if x.live == nil {
			x.arena = x.arena[:0]
		} else {
			x.live = append(x.live, liveRun{diskio.Section{Name: tape, Off: start}, len(x.arena)})
		}
	}
	end := off + int64(len(keys))
	for ; x.fit && x.fence < end; x.fence += x.block {
		x.arena = append(x.arena, keys[x.fence-off])
	}
	for ; x.next < len(x.at) && x.at[x.next] < end; x.next++ {
		x.samples[x.next] = keys[x.at[x.next]-off]
	}
}

// settle ends step 1's observation: the index covers the given runs.
func (x *sortedIndex) settle(runs []diskio.Section) {
	x.runs = runs
	if !x.fit {
		return
	}
	x.fences = make([][]record.Key, len(runs))
	for r, run := range runs {
		lo := 0 // the sorted file's
		for _, l := range x.live {
			if l.run == (diskio.Section{Name: run.Name, Off: run.Off}) {
				lo = l.at
			}
		}
		x.fences[r] = x.arena[lo : lo+int((run.Keys+x.block-1)/x.block)]
	}
}

// sortedIndex returns the index step 1 left or, on a node resumed past
// step 1 (the index dies with a crash), one rebuilt by a charged scan of
// every run and, over several runs, the samples' selection.
func (w *worker) sortedIndex() (*sortedIndex, error) {
	if w.index != nil {
		return w.index, nil
	}
	var li int64
	for _, run := range w.runs {
		li += run.Keys
	}
	x := w.newIndex(li, w.runs[0].Name != sortedName)
	w.index = x // a failed rebuild fails the run
	if len(x.at) > 0 || x.fit {
		for _, run := range w.runs {
			var off int64
			if err := w.scanRun(run, w.acct(), func(keys []record.Key) {
				x.observe(run.Name, run.Off, off, keys)
				off += int64(len(keys))
			}); err != nil {
				return nil, err
			}
		}
	}
	x.settle(w.runs)
	return x, w.selectSamples(x)
}

// fuseRuns is the verdict on stopping step 1 one merge short, the same
// on every node and with no message (DESIGN.md §10): every perf class j,
// at share l_j = l_i·perf_j/perf_i with R_j = min(T−1, ⌈l_j/M⌉) ≥ 2 runs,
// must fit its fences and price its probes, (samples_j·(R_j + 1) +
// (p−1)·R_j)·(seek + block) on the default cost model — R_j + 1 a sample
// (sampling.MultiwaySelect), R_j a cut — below the 2·l_j/B transfers of
// the last pass.  The histogram keeps the sorted file.
func (c Config) fuseRuns(li int64, id int) bool {
	if li <= 0 || c.Strategy != RegularSampling && c.Strategy != RandomPivots {
		return false
	}
	p, cm := len(c.Perf), vtime.DefaultCostModel()
	block := float64(c.BlockKeys) * cm.IOBlockSecPerKey
	m, b, t := int64(c.MemoryKeys), int64(c.BlockKeys), int64(c.Tapes)
	for _, perf := range c.Perf {
		lj := li * int64(perf) / int64(c.Perf[id])
		runs, blocks, samples := min(t-1, (lj+m-1)/m), (lj+b-1)/b, int64(p*perf-1)
		if c.Strategy == RandomPivots {
			samples = int64((p - 1) * perf)
		}
		if runs < 2 || blocks+t-1+samples > m-t*b ||
			float64(samples*(runs+1)+int64(p-1)*runs)*(cm.SeekSec+block) >= float64(2*blocks)*block {
			return false
		}
	}
	return true
}

// probe reads block b of run r for a rank query: a seek and a block read,
// synchronously charged, and one compute op per key read, as a scan
// charges.
func (w *worker) probe(x *sortedIndex, r int, b int64, f diskio.File, keys []record.Key) ([]record.Key, error) {
	cnt := min(x.block, x.runs[r].Keys-b*x.block)
	keys, err := diskio.ReadBlockAt(f, x.runs[r].Off+b*x.block, cnt, w.n.Acct(), keys)
	w.n.ChargeCompute(cnt)
	return keys, err
}

// ranks answers local rank queries for the histogram, whose step 1
// always writes the sorted file: for each ascending query q, how many
// keys are ≤ q, the largest of them and the smallest key above q
// (histsort.Count; a side with no key reports the neutral 0, resp. the
// top key).
func (w *worker) ranks(qs []record.Key, acct diskio.Accounting) ([]histsort.Count, error) {
	per, err := w.runRanks(qs, acct)
	if err != nil || per == nil {
		return nil, err
	}
	return per[0], nil
}

// runRanks answers ranks' queries in every run.  From a run's fences it
// is a binary search, then a probe per distinct block the ranks end in.
// It scans the run instead (scanRanks), on acct, without fences or when
// those probes price at least the scan on the node's cost model, read
// from no clock: overlap and D never change it.
func (w *worker) runRanks(qs []record.Key, acct diskio.Accounting) ([][]histsort.Count, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	x, err := w.sortedIndex()
	if err != nil {
		return nil, err
	}
	cm := w.n.Cost()
	block := float64(x.block) * cm.IOBlockSecPerKey
	per, counts := make([][]histsort.Count, len(x.runs)), make([]histsort.Count, len(x.runs)*len(qs))
	blk, keys := make([]int64, len(qs)), make([]record.Key, 0, x.block)
	for r, run := range x.runs {
		var fences []record.Key
		if x.fences != nil {
			fences = x.fences[r]
		}
		// blk[j] is the block query j's rank ends in, -1 below the first
		// key.  Like scanRanks, the queries are read as their running maximum.
		probes, q := 0.0, record.Key(0)
		for j := range qs {
			q = max(q, qs[j])
			blk[j] = int64(sort.Search(len(fences), func(b int) bool { return fences[b] > q })) - 1
			if blk[j] >= 0 && (j == 0 || blk[j] != blk[j-1]) {
				probes++
			}
		}
		if fences == nil || probes*(cm.SeekSec+block) >= float64(len(fences))*block {
			if per[r], err = w.scanRanks(run, qs, acct); err != nil {
				return nil, err
			}
			continue
		}
		f, err := w.files.File(run.Name)
		if err != nil {
			return nil, err
		}
		out := counts[r*len(qs) : (r+1)*len(qs)]
		q = 0
		for j, b := range blk {
			q = max(q, qs[j])
			// The smallest key above q opens the block after the rank's.
			out[j].Succ = noKey
			if int(b+1) < len(fences) {
				out[j].Succ = fences[b+1]
			}
			if b < 0 {
				continue
			}
			if j == 0 || b != blk[j-1] {
				if keys, err = w.probe(x, r, b, f, keys); err != nil {
					return nil, err
				}
			}
			i := sort.Search(len(keys), func(i int) bool { return keys[i] > q }) // ≥ 1: the fence is ≤ q
			out[j].N, out[j].Pred = b*x.block+int64(i), keys[i-1]
			if i < len(keys) {
				out[j].Succ = keys[i]
			}
		}
		per[r] = out
	}
	return per, nil
}

// selectSamples resolves the sample positions over several runs, where
// no writer saw the merged order, by a multiway selection
// (sampling.MultiwaySelect) whose block reads are charged as probes.
func (w *worker) selectSamples(x *sortedIndex) (err error) {
	if len(x.runs) <= 1 || len(x.at) == 0 {
		return nil
	}
	files := make([]diskio.File, len(x.runs))
	lens := make([]int64, len(x.runs))
	for r, run := range x.runs {
		if files[r], err = w.files.File(run.Name); err != nil {
			return err
		}
		lens[r] = run.Keys
	}
	x.samples, err = sampling.MultiwaySelect(x.fences, lens, x.block, x.at, func(r int, b int64, dst []record.Key) ([]record.Key, error) {
		return w.probe(x, r, b, files[r], dst)
	})
	return err
}

// noKey is what a rank query reports as the key above it when there is
// none: the top key, neutral under the histogram's min.
const noKey = ^record.Key(0)
