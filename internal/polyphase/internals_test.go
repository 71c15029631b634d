package polyphase

import (
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// sliceSource serves a sorted key slice through MergeSource in blocks of
// blk keys, mimicking a file-backed reader.
type sliceSource struct {
	keys []record.Key
	blk  int
	buf  []record.Key
}

func (s *sliceSource) Buffered() []record.Key { return s.buf }
func (s *sliceSource) Discard(n int)          { s.buf = s.buf[n:] }
func (s *sliceSource) Fill() error {
	if len(s.buf) > 0 {
		return nil
	}
	if len(s.keys) == 0 {
		return io.EOF
	}
	n := s.blk
	if n > len(s.keys) {
		n = len(s.keys)
	}
	s.buf, s.keys = s.keys[:n], s.keys[n:]
	return nil
}

func mergeAll(t *testing.T, srcs []MergeSource, meter vtime.Meter) []record.Key {
	t.Helper()
	var out []record.Key
	if err := Merge(srcs, meter, func(chunk []record.Key) error {
		out = append(out, chunk...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLoserTreeOrdering(t *testing.T) {
	runs := [][]record.Key{
		{1, 3, 5, 0xffffffff},
		{0, 2, 2, 9},
		{},
		{7},
		{2, 4},
	}
	var srcs []MergeSource
	var want []record.Key
	for _, r := range runs {
		srcs = append(srcs, &sliceSource{keys: r, blk: 2})
		want = append(want, r...)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	out := mergeAll(t, srcs, vtime.Nop{})
	if len(out) != len(want) {
		t.Fatalf("merged %d keys, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func TestLoserTreeSingleSourceAndEmpty(t *testing.T) {
	if out := mergeAll(t, nil, nil); len(out) != 0 {
		t.Fatalf("empty merge produced %v", out)
	}
	one := []MergeSource{&sliceSource{keys: []record.Key{4, 4, 8}, blk: 2}}
	out := mergeAll(t, one, nil)
	if len(out) != 3 || out[0] != 4 || out[2] != 8 {
		t.Fatalf("single-source merge = %v", out)
	}
}

func TestLoserTreeProperty(t *testing.T) {
	f := func(raw [][]record.Key, blk uint8) bool {
		b := int(blk%7) + 1
		var srcs []MergeSource
		var want []record.Key
		for _, r := range raw {
			r := append([]record.Key(nil), r...)
			sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
			srcs = append(srcs, &sliceSource{keys: r, blk: b})
			want = append(want, r...)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		out := mergeAll(t, srcs, nil)
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoserTreeChunkedEmit(t *testing.T) {
	var odd, even []record.Key
	for i := record.Key(0); i < 256; i += 2 {
		even, odd = append(even, i), append(odd, i+1)
	}
	for _, c := range []struct {
		name string
		srcs []MergeSource
		max  int
	}{
		// Non-overlapping sources go out block by block, not key by
		// key: source 0's whole buffer is below source 1's head.
		{"disjoint", []MergeSource{
			&sliceSource{keys: []record.Key{1, 2, 3, 4, 5, 6, 7, 8}, blk: 4},
			&sliceSource{keys: []record.Key{100, 101, 102, 103}, blk: 4},
		}, 4},
		// Keys that alternate between the sources are one-key chunks,
		// handed to emit in one batch per Fill (4 blocks), not one call
		// per key (256).
		{"interleaved", []MergeSource{
			&sliceSource{keys: even, blk: 64},
			&sliceSource{keys: odd, blk: 64},
		}, 4},
	} {
		calls, keys := 0, 0
		if err := Merge(c.srcs, nil, func(chunk []record.Key) error {
			calls++
			keys += len(chunk)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if calls > c.max {
			t.Errorf("%s: %d keys emitted in %d calls, want at most %d", c.name, keys, calls, c.max)
		}
	}
}

func TestSelectionHeapRunOrdering(t *testing.T) {
	// Items of run r must all come out before any item of run r+1,
	// regardless of key values.
	h := newSelectionHeap(8, vtime.Nop{})
	h.push(packItem(1, 1))
	h.push(packItem(0, 100))
	h.push(packItem(0, 50))
	h.push(packItem(1, 0))
	want := []struct {
		key record.Key
		run uint64
	}{{50, 0}, {100, 0}, {0, 1}, {1, 1}}
	for i, w := range want {
		got := h.pop()
		if itemKey(got) != w.key || itemRun(got) != w.run {
			t.Fatalf("pop %d = (key %d, run %d) want %+v", i, itemKey(got), itemRun(got), w)
		}
	}
	// The run outranks the key at the extremes of both halves of the word.
	h.push(packItem(maxSelectionRun, 0))
	h.push(packItem(maxSelectionRun-1, 0xffffffff))
	if got := h.pop(); itemRun(got) != maxSelectionRun-1 || itemKey(got) != 0xffffffff {
		t.Fatalf("pop = (key %d, run %d), want the lower run first", itemKey(got), itemRun(got))
	}
}

func TestSelectionHeapReplaceTop(t *testing.T) {
	h := newSelectionHeap(4, nil)
	h.push(packItem(0, 10))
	h.push(packItem(0, 20))
	h.replaceTop(packItem(1, 5)) // demoted to next run
	if got := h.pop(); itemKey(got) != 20 || itemRun(got) != 0 {
		t.Fatalf("pop = (key %d, run %d)", itemKey(got), itemRun(got))
	}
	if got := h.pop(); itemKey(got) != 5 || itemRun(got) != 1 {
		t.Fatalf("pop = (key %d, run %d)", itemKey(got), itemRun(got))
	}
	if h.len() != 0 {
		t.Fatalf("%d items left", h.len())
	}
}

func TestMergeKernelChargesCompute(t *testing.T) {
	var charged int64
	m := &captureMeter{compute: &charged}
	srcs := []MergeSource{
		&sliceSource{keys: []record.Key{1, 4, 9, 12}, blk: 2},
		&sliceSource{keys: []record.Key{2, 3, 10, 11}, blk: 2},
	}
	out := mergeAll(t, srcs, m)
	if charged < int64(len(out)) {
		t.Fatalf("merge of %d keys charged only %d compute ops", len(out), charged)
	}
}

type captureMeter struct{ compute *int64 }

func (c *captureMeter) ChargeCompute(n int64) { *c.compute += n }
func (c *captureMeter) ChargeIOBlocks(int64)  {}
func (c *captureMeter) ChargeSeek(int64)      {}

// exhausted is the reference kernels' head for a drained source: above
// every 32-bit key.
const exhausted = ^uint64(0)

// indexMerge is Merge as it was before the tree was packed: heads in
// their own array, tree slots holding source indices into it, and the
// replay a branch on heads[tree[j]] < heads[x].  It is the exact
// reference for the packed kernel: the same bytes, the same emit
// batches, the same Fills and compute charges (amounts included) in the
// same order, and the same observer counters.
func indexMerge(srcs []MergeSource, meter vtime.Meter, emit func([]record.Key) error) error {
	if meter == nil {
		meter = vtime.Nop{}
	}
	k := len(srcs)
	if k == 0 {
		return nil
	}
	var oKeys, oChunks, oFast, oComps int64
	if obs, ok := meter.(MergeObserver); ok {
		defer func() { obs.ObserveMerge(oKeys, oChunks, oFast, oComps) }()
	}
	k2, levels := 1, 0
	for k2 < k {
		k2 *= 2
		levels++
	}
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
	winner := make([]int, 2*k2)
	tree := make([]int, k2)
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
	oComps += int64(k2 - 1)
	var pending int64
	out := &batcher{emit: emit}
	for {
		w := tree[0]
		if heads[w] == exhausted {
			err := out.flush()
			meter.ChargeCompute(pending)
			return err
		}
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
			cnt = 1
		case uint64(buf[len(buf)-1]) <= second:
			cnt = len(buf)
		default:
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
			oFast++
		}
		oComps += int64(2 * levels)
		pos[w] += cnt
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
			pending += int64(len(b)) + 1
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
		x := w
		for j := (k2 + w) >> 1; j >= 1; j >>= 1 {
			if heads[tree[j]] < heads[x] {
				tree[j], x = x, tree[j]
			}
		}
		tree[0] = x
	}
}

// refMerge is the merge kernel without multi-block galloping: after a
// Fill the winner's fresh block goes back through the tree like any
// other head, one chunk per replay.  It is the reference Merge is
// compared with: the same bytes, the same Fill sequence, and never less
// compute.
func refMerge(srcs []MergeSource, meter vtime.Meter, emit func([]record.Key) error) error {
	if meter == nil {
		meter = vtime.Nop{}
	}
	k := len(srcs)
	if k == 0 {
		return nil
	}
	var oKeys, oChunks, oFast, oComps int64
	if obs, ok := meter.(MergeObserver); ok {
		defer func() { obs.ObserveMerge(oKeys, oChunks, oFast, oComps) }()
	}
	k2, levels := 1, 0
	for k2 < k {
		k2 *= 2
		levels++
	}
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
	winner := make([]int, 2*k2)
	tree := make([]int, k2)
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
	oComps += int64(k2 - 1)
	var pending int64
	for {
		w := tree[0]
		if heads[w] == exhausted {
			meter.ChargeCompute(pending)
			return nil
		}
		second := exhausted
		for j := (k2 + w) >> 1; j >= 1; j >>= 1 {
			second = min(second, heads[tree[j]])
		}
		buf := bases[w][pos[w]:]
		cnt := 1
		for cnt < len(buf) && uint64(buf[cnt]) <= second {
			cnt++
		}
		if err := emit(buf[:cnt]); err != nil {
			meter.ChargeCompute(pending)
			return err
		}
		srcs[w].Discard(cnt)
		pending += int64(cnt) + int64(2*levels) + 1
		oKeys += int64(cnt)
		oChunks++
		if cnt > 1 {
			oFast++
		}
		oComps += int64(2 * levels)
		pos[w] += cnt
		if pos[w] == len(bases[w]) {
			meter.ChargeCompute(pending)
			pending = 0
			switch err := srcs[w].Fill(); err {
			case nil:
				if bases[w] = srcs[w].Buffered(); len(bases[w]) == 0 {
					return errEmptyFill
				}
				pos[w] = 0
			case io.EOF:
			default:
				return err
			}
		}
		if pos[w] < len(bases[w]) {
			heads[w] = uint64(bases[w][pos[w]])
		} else {
			heads[w] = exhausted
		}
		x := w
		for j := (k2 + w) >> 1; j >= 1; j >>= 1 {
			if heads[tree[j]] < heads[x] {
				tree[j], x = x, tree[j]
			}
		}
		tree[0] = x
	}
}

// fillLog is a sliceSource that appends "f<src>@<keys emitted so far>"
// to a shared event log on every Fill, so a merge's Fill order can be
// compared with its compute charges interleaved, and with what emit had
// received by then.
type fillLog struct {
	sliceSource
	id      int
	events  *[]string
	emitted *int
}

func (s *fillLog) Fill() error {
	*s.events = append(*s.events, fmt.Sprint("f", s.id, "@", *s.emitted))
	return s.sliceSource.Fill()
}

// mergeTrace merges keys cut into runs by one of the two kernels over
// B-key blocks and returns the emitted keys, every Fill and compute
// charge in order (compute as "c": galloping changes the amounts, never
// where they fall) with the keys emitted before it, and the total
// compute charged.
func mergeTrace(t *testing.T, runs [][]record.Key, blk int, kernel func([]MergeSource, vtime.Meter, func([]record.Key) error) error) ([]record.Key, []string, int64) {
	t.Helper()
	r := recordMerge(t, runs, blk, kernel, false)
	return r.out, r.events, r.compute
}

// firstDiff is the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// mergeRecord is what recordMerge saw of one merge.
type mergeRecord struct {
	out      []record.Key
	events   []string
	compute  int64
	counters [4]int64 // ObserveMerge's keys, chunks, fast chunks, comparisons
}

// recordMerge runs kernel over runs cut into B-key blocks.  Its event
// log holds every Fill and compute charge in order, with the keys
// emitted before it; exact adds each charge's amount and every emit
// call with its length.
func recordMerge(t *testing.T, runs [][]record.Key, blk int, kernel func([]MergeSource, vtime.Meter, func([]record.Key) error) error, exact bool) mergeRecord {
	t.Helper()
	var r mergeRecord
	emitted := 0
	var srcs []MergeSource
	for i, run := range runs {
		srcs = append(srcs, &fillLog{sliceSource: sliceSource{keys: run, blk: blk}, id: i, events: &r.events, emitted: &emitted})
	}
	m := &chargeLog{events: &r.events, compute: &r.compute, emitted: &emitted, exact: exact, counters: &r.counters}
	if err := kernel(srcs, m, func(c []record.Key) error {
		if exact {
			r.events = append(r.events, fmt.Sprint("e", len(c)))
		}
		r.out = append(r.out, c...)
		emitted = len(r.out)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

// chargeLog logs compute charges as "c@<keys emitted so far>" (with
// exact, "c<amount>@<keys emitted so far>") into the shared event log
// and keeps the kernel's observer counters.
type chargeLog struct {
	events   *[]string
	compute  *int64
	emitted  *int
	exact    bool
	counters *[4]int64
}

func (m *chargeLog) ChargeCompute(n int64) {
	if m.exact {
		*m.events = append(*m.events, fmt.Sprint("c", n, "@", *m.emitted))
	} else {
		*m.events = append(*m.events, fmt.Sprint("c@", *m.emitted))
	}
	*m.compute += n
}
func (m *chargeLog) ChargeIOBlocks(int64) {}
func (m *chargeLog) ChargeSeek(int64)     {}
func (m *chargeLog) ObserveMerge(keys, chunks, fastChunks, comparisons int64) {
	*m.counters = [4]int64{keys, chunks, fastChunks, comparisons}
}

// testRuns cuts 97·k keys of d into k sorted runs.  Every other run is a
// band of its own, so gallops fire; with tails, every third ends in
// 0xFFFFFFFF keys, which tie each other and sit just below the drained
// head.
func testRuns(d record.Distribution, k int, tails bool) [][]record.Key {
	keys := d.Generate(k*97, 13, 1)
	runs := make([][]record.Key, k)
	for i, key := range keys {
		runs[i%k] = append(runs[i%k], key)
	}
	for i := range runs {
		slices.Sort(runs[i])
		if i%2 == 1 {
			for j := range runs[i] {
				runs[i][j] = record.Key(i)<<24 | runs[i][j]>>8
			}
		}
		if tails && i%3 == 0 {
			for j := 0; j <= i%5; j++ {
				runs[i] = append(runs[i], 0xFFFFFFFF)
			}
		}
	}
	return runs
}

// laneRuns deals n ascending keys to k runs, band j (of sizes[j%len])
// to run j%k, so that on distinct keys every chunk of the merge is a
// band cut at buffer ends.  With ties, each band starts on the key the
// band before ended on, so chunks end on a tie between two sources.
func laneRuns(k, n int, sizes []int, ties bool) [][]record.Key {
	runs := make([][]record.Key, k)
	key := record.Key(0)
	for j, i := 0, 0; i < n; j++ {
		for c := 0; c < sizes[j%len(sizes)] && i < n; c, i = c+1, i+1 {
			if c > 0 || !ties {
				key++
			}
			runs[j%k] = append(runs[j%k], key)
		}
	}
	return runs
}

// TestPackedMergeMatchesIndexedKernel: the packed-tree kernel emits the
// indexed kernel's bytes in the same emit batches, makes the same Fills
// and compute charges (amounts included) in the same order with the
// same keys emitted at each, and reports the same observer counters.
// Over every generator, k of 1 to 64 sources and blocks of 1 to 128
// keys, every other run is a band of its own, so gallops fire, and every
// third ends in 0xFFFFFFFF keys, which tie each other and sit just below
// the drained head: a replay that broke head ties by source index, or a
// sentinel that tied the top key, would show here.  Banded runs then
// hold every exit of the per-key lane to the indexed kernel: chunks of
// laneKeys-1, laneKeys and laneKeys+1 keys, short and long chunks that
// straddle a batch or end on a buffer's last key, and ties between
// sources at chunk ends.
func TestPackedMergeMatchesIndexedKernel(t *testing.T) {
	type shape struct {
		id   string
		runs [][]record.Key
		blks []int
	}
	var shapes []shape
	for _, d := range record.Distributions() {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 16, 17, 64} {
			shapes = append(shapes, shape{fmt.Sprintf("%v k=%d", d, k), testRuns(d, k, true), []int{1, 2, 3, 8, 64, 128}})
		}
	}
	for _, sizes := range [][]int{{laneKeys - 1}, {laneKeys}, {laneKeys + 1}, {1, laneKeys - 1, laneKeys, laneKeys + 1, 97}, {2, 200, 1, 1, laneKeys + 1}} {
		for _, k := range []int{2, 3, 4, 7} {
			for _, ties := range []bool{false, true} {
				shapes = append(shapes, shape{fmt.Sprintf("bands %v k=%d ties=%v", sizes, k, ties), laneRuns(k, 2200, sizes, ties), []int{1, 2, 3, 4, 97, 1024}})
			}
		}
	}
	for _, sh := range shapes {
		for _, blk := range sh.blks {
			id := fmt.Sprintf("%s B=%d", sh.id, blk)
			got := recordMerge(t, sh.runs, blk, Merge, true)
			want := recordMerge(t, sh.runs, blk, indexMerge, true)
			if !slices.Equal(got.out, want.out) {
				t.Fatalf("%s: emitted keys differ from the indexed kernel's", id)
			}
			if i := firstDiff(got.events, want.events); i >= 0 {
				t.Fatalf("%s: event %d of the emit/Fill/charge log: %v, indexed kernel %v", id, i, got.events[i:min(i+8, len(got.events))], want.events[i:min(i+8, len(want.events))])
			}
			if got.counters != want.counters {
				t.Fatalf("%s: observer counters %v, indexed kernel %v", id, got.counters, want.counters)
			}
		}
	}
}

// TestMergeMatchesReference: over every generator, k of 1 to 17
// sources and blocks of 1 to 64 keys, the galloping, batching kernel
// emits the reference kernel's bytes, issues the same Fills in the same
// order between the same compute flushes, has emitted the same keys at
// each of them, and never charges more compute.
func TestMergeMatchesReference(t *testing.T) {
	galloped := 0
	for _, d := range record.Distributions() {
		for _, k := range []int{1, 2, 3, 5, 16, 17} {
			for _, blk := range []int{1, 3, 8, 64} {
				runs := testRuns(d, k, false)
				id := fmt.Sprintf("%v k=%d B=%d", d, k, blk)
				got, gotEv, gotC := mergeTrace(t, runs, blk, Merge)
				want, wantEv, wantC := mergeTrace(t, runs, blk, refMerge)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: emitted keys differ from the reference's", id)
				}
				if !slices.Equal(gotEv, wantEv) {
					t.Fatalf("%s: Fill/charge sequence %v, reference %v", id, gotEv, wantEv)
				}
				if gotC > wantC {
					t.Fatalf("%s: charged %d compute, reference %d", id, gotC, wantC)
				}
				if gotC < wantC {
					galloped++
				}
			}
		}
	}
	if galloped == 0 {
		t.Fatal("galloping saved compute in no case: the comparison is vacuous")
	}
}

func TestDistributorPlacesAllRunsWithinTargets(t *testing.T) {
	for _, tapes := range []int{2, 3, 5} {
		inputs := make([]*tape, tapes)
		for i := range inputs {
			inputs[i] = &tape{}
		}
		d := newDistributor(inputs)
		// Place 100 runs via the public-ish path (pick/placed).
		for r := 0; r < 100; r++ {
			i := d.pick()
			d.placed[i]++
		}
		d.finalize()
		var placed, total int64
		for i, tp := range inputs {
			if d.placed[i] > d.target[i] {
				t.Fatalf("tape %d overfilled: %d > %d", i, d.placed[i], d.target[i])
			}
			if tp.dummies != d.target[i]-d.placed[i] {
				t.Fatalf("tape %d dummies %d inconsistent", i, tp.dummies)
			}
			placed += d.placed[i]
			total += d.target[i]
		}
		if placed != 100 {
			t.Fatalf("placed %d runs", placed)
		}
		if total < 100 {
			t.Fatalf("targets %d below run count", total)
		}
	}
}

func TestDistributorTwoTapeFibonacci(t *testing.T) {
	// T=3 means two input tapes: the classic Fibonacci distribution.
	inputs := []*tape{{}, {}}
	d := newDistributor(inputs)
	sums := []int64{}
	for l := 0; l < 8; l++ {
		sums = append(sums, d.target[0]+d.target[1])
		d.levelUp()
	}
	want := []int64{2, 3, 5, 8, 13, 21, 34, 55}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("fibonacci totals %v want %v", sums, want)
		}
	}
}

func TestRunFormationEmitsSortedRuns(t *testing.T) {
	// Collect runs from the replacement-selection former and check
	// each is sorted and their union is the input.
	fs := newMemInput(t, record.Uniform.Generate(3000, 5, 1))
	var runs [][]record.Key
	sink := &collectSink{runs: &runs}
	n, total, err := formRuns(fs, "input", 16, 64, ReplacementSelection, accounting(), sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(runs)) || total != 3000 {
		t.Fatalf("n=%d runs=%d total=%d", n, len(runs), total)
	}
	var all []record.Key
	for _, r := range runs {
		if !slices.IsSorted(r) {
			t.Fatal("run not sorted")
		}
		all = append(all, r...)
	}
	want := record.ChecksumOf(record.Uniform.Generate(3000, 5, 1))
	if !record.ChecksumOf(all).Equal(want) {
		t.Fatal("runs lost keys")
	}
}

func TestReplacementSelectionAverageRunLength(t *testing.T) {
	// Knuth: expected run length 2M on random input.
	fs := newMemInput(t, record.Uniform.Generate(50000, 9, 1))
	var runs [][]record.Key
	sink := &collectSink{runs: &runs}
	n, total, err := formRuns(fs, "input", 64, 256, ReplacementSelection, accounting(), sink)
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(total) / float64(n)
	if avg < 1.6*256 || avg > 2.4*256 {
		t.Fatalf("average run length %v keys, want ~2M=512", avg)
	}
}

func TestLoadSortRunLengthExactlyM(t *testing.T) {
	fs := newMemInput(t, record.Uniform.Generate(1000, 3, 1))
	var runs [][]record.Key
	sink := &collectSink{runs: &runs}
	_, _, err := formRuns(fs, "input", 16, 256, LoadSort, accounting(), sink)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runs[:len(runs)-1] {
		if len(r) != 256 {
			t.Fatalf("run %d length %d, want M=256", i, len(r))
		}
	}
	if last := runs[len(runs)-1]; len(last) != 1000%256 {
		t.Fatalf("last run %d keys", len(last))
	}
}

// Helpers.

func newMemInput(t *testing.T, keys []record.Key) diskio.FS {
	t.Helper()
	fs := diskio.NewMemFS()
	if err := diskio.WriteFile(fs, "input", keys, 64, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	return fs
}

func accounting() diskio.Accounting { return diskio.Accounting{} }

type collectSink struct {
	runs *[][]record.Key
	cur  []record.Key
}

func (c *collectSink) beginRun() (int, error) { c.cur = nil; return 0, nil }
func (c *collectSink) emitKeys(keys []record.Key) error {
	c.cur = append(c.cur, keys...)
	return nil
}
func (c *collectSink) endRun() error {
	*c.runs = append(*c.runs, c.cur)
	return nil
}

// The replacement-selection former as it stood before its items were
// packed into one word: a heap of {key, run} structs with a two-field
// less and a swapping sift, handing each key to the sink alone.  It is
// the reference the packed former is compared with, event for event.

type refItem struct {
	key record.Key
	run int64
}

type refHeap struct {
	items []refItem
	meter vtime.Meter
}

func (h *refHeap) less(a, b refItem) bool {
	if a.run != b.run {
		return a.run < b.run
	}
	return a.key < b.key
}

func (h *refHeap) push(it refItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	var ops int64
	for i > 0 {
		parent := (i - 1) / 2
		ops++
		if !h.less(h.items[i], h.items[parent]) {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
	h.meter.ChargeCompute(ops + 1)
}

func (h *refHeap) pop() {
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
}

func (h *refHeap) replaceTop(it refItem) {
	h.items[0] = it
	h.siftDown(0)
}

func (h *refHeap) siftDown(i int) {
	n := len(h.items)
	var ops int64
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(h.items[l], h.items[smallest]) {
			smallest = l
		}
		if r < n && h.less(h.items[r], h.items[smallest]) {
			smallest = r
		}
		ops += 2
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	h.meter.ChargeCompute(ops + 1)
}

// refFormRunsReplacement is the former's old loop; emit takes one key.
func refFormRunsReplacement(r *diskio.Reader, memoryKeys int, meter vtime.Meter, sink runSink, emit func(record.Key) error) (int64, int64, error) {
	h := &refHeap{meter: meter}
	var total int64
	for len(h.items) < memoryKeys {
		k, err := r.ReadKey()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		h.push(refItem{key: k, run: 0})
		total++
	}
	var runs int64
	current := int64(0)
	inRun := false
	var lastOut record.Key
	for len(h.items) > 0 {
		it := h.items[0]
		if it.run != current {
			if inRun {
				if err := sink.endRun(); err != nil {
					return runs, total, err
				}
				inRun = false
			}
			current = it.run
		}
		if !inRun {
			if _, err := sink.beginRun(); err != nil {
				return runs, total, err
			}
			runs++
			inRun = true
		}
		if err := emit(it.key); err != nil {
			return runs, total, err
		}
		lastOut = it.key
		next, err := r.ReadKey()
		switch err {
		case nil:
			total++
			meter.ChargeCompute(1)
			if next >= lastOut {
				h.replaceTop(refItem{key: next, run: current})
			} else {
				h.replaceTop(refItem{key: next, run: current + 1})
			}
		case io.EOF:
			h.pop()
		default:
			return runs, total, err
		}
	}
	if inRun {
		if err := sink.endRun(); err != nil {
			return runs, total, err
		}
	}
	return runs, total, nil
}

// eventMeter records every charge in order: c<ops> for compute, b<n> for
// block transfers (the input's reads and the tapes' writes alike).
type eventMeter struct{ events []string }

func (m *eventMeter) ChargeCompute(n int64)  { m.events = append(m.events, fmt.Sprint("c", n)) }
func (m *eventMeter) ChargeIOBlocks(n int64) { m.events = append(m.events, fmt.Sprint("b", n)) }
func (m *eventMeter) ChargeSeek(n int64)     { m.events = append(m.events, fmt.Sprint("s", n)) }

// formed is everything run formation leaves behind on three tapes.
type formed struct {
	runs, total int64
	lengths     [][]int64      // run lengths per tape, in order
	keys        [][]record.Key // tape contents
	events      []string
}

// formOnTapes runs one of the two formers over keys into a real
// distributor on three block-writing tapes, with every charge recorded.
func formOnTapes(t *testing.T, keys []record.Key, block, memory int, reference bool) formed {
	t.Helper()
	fs := diskio.NewMemFS()
	if err := diskio.WriteFile(fs, "input", keys, block, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	meter := &eventMeter{}
	acct := diskio.Accounting{Meter: meter}
	tapes := make([]*tape, 3)
	for i := range tapes {
		tapes[i] = &tape{fs: fs, name: fmt.Sprint("tape", i), block: block, acct: acct}
		if err := tapes[i].becomeOutput(); err != nil {
			t.Fatal(err)
		}
	}
	d := newDistributor(tapes)
	in, err := fs.Open("input")
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	r := diskio.NewReader(in, block, acct)
	defer r.Release()
	var f formed
	if reference {
		f.runs, f.total, err = refFormRunsReplacement(r, memory, meter, d, func(k record.Key) error {
			d.curLen++
			return d.tapes[d.cur].w.WriteKeys([]record.Key{k})
		})
	} else {
		f.runs, f.total, err = formRunsReplacement(r, block, memory, meter, d)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tapes {
		if err := tp.finishOutput(); err != nil { // flushes the partial block: one more charge
			t.Fatal(err)
		}
		f.lengths = append(f.lengths, slices.Clone(tp.runs))
		tp.close()
		got, err := diskio.ReadFileAll(fs, tp.name, block, diskio.Accounting{})
		if err != nil {
			t.Fatal(err)
		}
		f.keys = append(f.keys, got)
	}
	f.events = meter.events
	return f
}

// TestReplacementSelectionMatchesReference: over every generator and an
// all-equal input, heaps of 1 to 4096 keys and inputs from empty to seven
// heaps and a bit, and a heap of the workloads' 65536 keys over two heaps
// and a bit, the packed former forms the runs of the struct-item
// reference — same boundaries, same keys on the same tapes — and charges
// the same amounts in the same order, the tapes' block writes included.
func TestReplacementSelectionMatchesReference(t *testing.T) {
	const block = 16
	type input struct {
		name string
		gen  func(n int) []record.Key
	}
	var inputs []input
	for _, d := range record.Distributions() {
		inputs = append(inputs, input{d.String(), func(n int) []record.Key { return d.Generate(n, 41, 3) }})
	}
	inputs = append(inputs, input{"all-equal", func(n int) []record.Key {
		keys := make([]record.Key, n)
		for i := range keys {
			keys[i] = 0xabcdef01
		}
		return keys
	}})
	type shape struct{ m, n int }
	var shapes []shape
	for _, m := range []int{1, 2, 3, 5, 7, 64, 100, 4096} {
		for _, n := range []int{0, 1, m, 7*m + 5} {
			shapes = append(shapes, shape{m, n})
		}
	}
	// The workloads' M, where the look-ahead clamp and the sentinel bind at
	// other depths than in the small heaps; on the first generator only.
	shapes = append(shapes, shape{1 << 16, 2<<16 + 7})
	for i, in := range inputs {
		for _, sh := range shapes {
			if sh.m == 1<<16 && i > 0 {
				continue
			}
			m, n := sh.m, sh.n
			keys := in.gen(n)
			want := formOnTapes(t, keys, block, m, true)
			got := formOnTapes(t, keys, block, m, false)
			id := fmt.Sprintf("%s M=%d n=%d", in.name, m, n)
			if got.runs != want.runs || got.total != want.total {
				t.Fatalf("%s: formed %d runs of %d keys, reference %d of %d", id, got.runs, got.total, want.runs, want.total)
			}
			for i := range want.lengths {
				if !slices.Equal(got.lengths[i], want.lengths[i]) {
					t.Fatalf("%s: tape %d run lengths %v, reference %v", id, i, got.lengths[i], want.lengths[i])
				}
				if !slices.Equal(got.keys[i], want.keys[i]) {
					t.Fatalf("%s: tape %d holds other keys than the reference's", id, i)
				}
			}
			if !slices.Equal(got.events, want.events) {
				at := 0
				for at < len(got.events) && at < len(want.events) && got.events[at] == want.events[at] {
					at++
				}
				t.Fatalf("%s: %d charges, reference %d; first difference at charge %d: %v, reference %v",
					id, len(got.events), len(want.events), at, got.events[at:min(at+4, len(got.events))], want.events[at:min(at+4, len(want.events))])
			}
		}
	}
}

// TestSelectionHeapIsTextbookHeap: random push, replaceTop and pop
// sequences on heaps of 1 to 1100 items leave the 1-based heap's
// items[1..n] equal to the 0-based textbook heap's items[0..n-1], with
// the sentinel at items[n+1], and charge what the textbook heap charges,
// after every operation.  Keys from a narrow range make ties common.
func TestSelectionHeapIsTextbookHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(45, 1))
	for _, capacity := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 64, 100, 1100} {
		for _, keyRange := range []uint32{4, 1 << 31} {
			gotMeter, wantMeter := &eventMeter{}, &eventMeter{}
			h := newSelectionHeap(capacity, gotMeter)
			ref := &refHeap{meter: wantMeter}
			item := func() refItem {
				return refItem{key: record.Key(rng.Uint32N(keyRange)), run: int64(rng.IntN(3))}
			}
			for op := 0; op < min(20*capacity, 5000)+50; op++ {
				var name string
				switch x := rng.IntN(8); {
				case h.len() == 0 || h.len() < capacity && x < 3:
					it := item()
					name = "push"
					h.push(packItem(uint64(it.run), it.key))
					ref.push(it)
				case x < 7:
					it := item()
					name = "replaceTop"
					h.replaceTop(packItem(uint64(it.run), it.key))
					ref.replaceTop(it)
				default:
					name = "pop"
					top := h.pop()
					if want := packItem(uint64(ref.items[0].run), ref.items[0].key); top != want {
						t.Fatalf("cap %d op %d: pop returned %#x, textbook %#x", capacity, op, top, want)
					}
					ref.pop()
				}
				n := h.len()
				if n != len(ref.items) {
					t.Fatalf("cap %d op %d %s: %d items, textbook %d", capacity, op, name, n, len(ref.items))
				}
				for j, it := range ref.items {
					if want := packItem(uint64(it.run), it.key); h.items[j+1] != want {
						t.Fatalf("cap %d op %d %s: items[%d] = %#x, textbook items[%d] = %#x", capacity, op, name, j+1, h.items[j+1], j, want)
					}
				}
				if s := h.items[:n+2][n+1]; s != selectionSentinel {
					t.Fatalf("cap %d op %d %s: items[%d] = %#x, not the sentinel", capacity, op, name, n+1, s)
				}
				if g, w := gotMeter.events, wantMeter.events; len(g) != op+1 || len(w) != op+1 || g[op] != w[op] {
					t.Fatalf("cap %d op %d %s: charged %v, textbook %v", capacity, op, name, g[len(g)-1:], w[len(w)-1:])
				}
			}
		}
	}
}

// batcher is the reference kernels' output batch, as Merge's was before
// it had a pull form.
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

// pullMerge drains a Merger's pull form the way a merge drains a leaf:
// Fill on an empty buffer, then Discard the buffered keys in pieces of 1
// to 7.  It emits each Fill's batch whole.
func pullMerge(srcs []MergeSource, meter vtime.Meter, emit func([]record.Key) error) error {
	var m Merger
	if err := m.Reset(srcs, meter); err != nil {
		return err
	}
	for piece := 1; ; piece = piece%7 + 1 {
		if len(m.Buffered()) == 0 {
			if err := m.Fill(); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
			if err := emit(m.Buffered()); err != nil {
				return err
			}
		}
		m.Discard(min(piece, len(m.Buffered())))
	}
}

// fillTotals is an exact event log with the compute charged between two
// source Fills summed into one "c<amount>" before the second, and after
// the last event.  The pull form also charges at each of its own Fills,
// so these sums, the source Fills and the emits are what it shares with
// Merge.
func fillTotals(events []string) []string {
	var out []string
	var sum int64
	for _, e := range events {
		var n int64
		if _, err := fmt.Sscanf(e, "c%d@", &n); err == nil {
			sum += n
			continue
		}
		if e[0] == 'f' {
			out, sum = append(out, fmt.Sprint("c", sum)), 0
		}
		out = append(out, e)
	}
	return append(out, fmt.Sprint("c", sum))
}

// TestPullFormMatchesMerge: over every generator, k of 1 to 17 sources
// and blocks of 1 to 128 keys, a Merger drained as a MergeSource yields
// Merge's bytes in Merge's emit batches (an outer tree's chunks end at
// them), makes the same source Fills with the same keys out before each
// and the same compute charged between them, and reports the same
// observer counters.
func TestPullFormMatchesMerge(t *testing.T) {
	for _, d := range record.Distributions() {
		for _, k := range []int{1, 2, 3, 5, 16, 17} {
			for _, blk := range []int{1, 8, 128} {
				runs := testRuns(d, k, true)
				got := recordMerge(t, runs, blk, pullMerge, true)
				want := recordMerge(t, runs, blk, Merge, true)
				id := fmt.Sprintf("%v k=%d B=%d", d, k, blk)
				if !slices.Equal(got.out, want.out) {
					t.Fatalf("%s: the pull form's keys differ from Merge's", id)
				}
				gotEv, wantEv := fillTotals(got.events), fillTotals(want.events)
				if i := firstDiff(gotEv, wantEv); i >= 0 {
					t.Fatalf("%s: event %d of the emit/Fill/charge log: %v, Merge %v", id, i, gotEv[i:min(i+8, len(gotEv))], wantEv[i:min(i+8, len(wantEv))])
				}
				if got.compute != want.compute || got.counters != want.counters {
					t.Fatalf("%s: the pull form charged %d compute with counters %v, Merge %d with %v", id, got.compute, got.counters, want.compute, want.counters)
				}
			}
		}
	}
}

// TestPullFillAllocatesNothing: a steady-state Fill of the pull form
// allocates nothing.
func TestPullFillAllocatesNothing(t *testing.T) {
	var srcs []MergeSource
	for _, run := range testRuns(record.Uniform, 5, false) {
		for range 10 { // 97·2¹⁰ keys a run
			run = append(run, run...)
		}
		slices.Sort(run)
		srcs = append(srcs, &sliceSource{keys: run, blk: 64})
	}
	var m Merger
	if err := m.Reset(srcs, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Discard(len(m.Buffered()))
		if err := m.Fill(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a Fill allocated %.1f objects", allocs)
	}
}
