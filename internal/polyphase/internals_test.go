package polyphase

import (
	"io"
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
	// Non-overlapping sources must be emitted block-at-a-time, not
	// key-at-a-time: source 0's whole buffer is below source 1's head.
	srcs := []MergeSource{
		&sliceSource{keys: []record.Key{1, 2, 3, 4, 5, 6, 7, 8}, blk: 4},
		&sliceSource{keys: []record.Key{100, 101, 102, 103}, blk: 4},
	}
	var chunks int
	if err := Merge(srcs, nil, func(chunk []record.Key) error {
		chunks++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// 2 blocks from source 0, 1 block from source 1 (plus at most one
	// extra boundary chunk): far fewer than the 12 per-key emits.
	if chunks > 4 {
		t.Fatalf("expected block-copy fast path, got %d chunks for 12 keys", chunks)
	}
}

func TestSelectionHeapRunOrdering(t *testing.T) {
	// Items of run r must all come out before any item of run r+1,
	// regardless of key values.
	h := newSelectionHeap(8, vtime.Nop{})
	h.push(selectionItem{key: 1, run: 1})
	h.push(selectionItem{key: 100, run: 0})
	h.push(selectionItem{key: 50, run: 0})
	h.push(selectionItem{key: 0, run: 1})
	want := []selectionItem{{50, 0}, {100, 0}, {0, 1}, {1, 1}}
	for i, w := range want {
		got := h.pop()
		if got != w {
			t.Fatalf("pop %d = %+v want %+v", i, got, w)
		}
	}
}

func TestSelectionHeapReplaceTop(t *testing.T) {
	h := newSelectionHeap(4, nil)
	h.push(selectionItem{key: 10, run: 0})
	h.push(selectionItem{key: 20, run: 0})
	h.replaceTop(selectionItem{key: 5, run: 1}) // demoted to next run
	if got := h.pop(); got.key != 20 || got.run != 0 {
		t.Fatalf("pop = %+v", got)
	}
	if got := h.pop(); got.key != 5 || got.run != 1 {
		t.Fatalf("pop = %+v", got)
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
		if !record.IsSorted(r) {
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

func (c *collectSink) beginRun() error { c.cur = nil; return nil }
func (c *collectSink) emit(k record.Key) error {
	c.cur = append(c.cur, k)
	return nil
}
func (c *collectSink) endRun() error {
	*c.runs = append(*c.runs, c.cur)
	return nil
}
