package polyphase

import (
	"bytes"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// bandedKeys builds bands of perBand keys with disjoint, ascending key
// ranges and pseudo-random order inside each band.  When perBand equals
// the run former's memory size, every load is one band, so Guidesort's
// guide comparison succeeds at every load boundary and the merge
// kernel's galloping fast path fires on every inter-run block.
func bandedKeys(bands, perBand int, seed uint64) []record.Key {
	keys := make([]record.Key, 0, bands*perBand)
	x := seed*2862933555777941757 + 3037000493
	for b := 0; b < bands; b++ {
		base := record.Key(b) << 20
		for i := 0; i < perBand; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			keys = append(keys, base+record.Key(x>>44)&0xfffff)
		}
	}
	return keys
}

func TestGuidesortSortsAllDistributions(t *testing.T) {
	for _, d := range record.Distributions() {
		t.Run(d.String(), func(t *testing.T) {
			cfg := testConfig(diskio.NewMemFS(), nil)
			cfg.RunFormation = Guidesort
			sortAndVerify(t, cfg, d.Generate(3000, 11, 4))
		})
	}
}

// TestGuidesortCoalescesBandedLoads: on banded input whose bands match
// the memory size, Guidesort forms a single run where LoadSort forms one
// run per band.
func TestGuidesortCoalescesBandedLoads(t *testing.T) {
	const bands, m = 6, 128
	keys := bandedKeys(bands, m, 5)
	form := func(how RunFormation) [][]record.Key {
		fs := newMemInput(t, keys)
		var runs [][]record.Key
		sink := &collectSink{runs: &runs}
		n, total, err := formRuns(fs, "input", 16, m, how, accounting(), sink)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(runs)) || total != int64(len(keys)) {
			t.Fatalf("%v: n=%d runs=%d total=%d", how, n, len(runs), total)
		}
		return runs
	}
	if ls := form(LoadSort); len(ls) != bands {
		t.Fatalf("LoadSort formed %d runs, want %d", len(ls), bands)
	}
	gs := form(Guidesort)
	if len(gs) != 1 {
		t.Fatalf("Guidesort formed %d runs on banded input, want 1", len(gs))
	}
	if !slices.IsSorted(gs[0]) {
		t.Fatal("coalesced run not sorted")
	}
	if !record.ChecksumOf(gs[0]).Equal(record.ChecksumOf(keys)) {
		t.Fatal("coalesced run lost keys")
	}
}

// TestGuidesortRunsNeverExceedLoadSort: the guide comparison can only
// merge adjacent loads, so Guidesort's run count is bounded by
// LoadSort's on any input, and each run stays sorted.
func TestGuidesortRunsNeverExceedLoadSort(t *testing.T) {
	for _, d := range record.Distributions() {
		keys := d.Generate(2500, 3, 2)
		count := func(how RunFormation) int {
			fs := newMemInput(t, keys)
			var runs [][]record.Key
			sink := &collectSink{runs: &runs}
			if _, _, err := formRuns(fs, "input", 16, 128, how, accounting(), sink); err != nil {
				t.Fatal(err)
			}
			for _, r := range runs {
				if !slices.IsSorted(r) {
					t.Fatalf("%v/%v produced an unsorted run", d, how)
				}
			}
			return len(runs)
		}
		if gs, ls := count(Guidesort), count(LoadSort); gs > ls {
			t.Fatalf("%v: Guidesort %d runs > LoadSort %d", d, gs, ls)
		}
	}
}

// TestGuidesortComputeBelowReplacement: Guidesort's pass charges
// n*log2(M) + one guide comparison per load, strictly below replacement
// selection's per-key heap traffic.
func TestGuidesortComputeBelowReplacement(t *testing.T) {
	keys := record.Uniform.Generate(8192, 17, 1)
	charge := func(how RunFormation) int64 {
		fs := newMemInput(t, keys)
		var charged int64
		acct := diskio.Accounting{Meter: &captureMeter{compute: &charged}}
		var runs [][]record.Key
		sink := &collectSink{runs: &runs}
		if _, _, err := formRuns(fs, "input", 64, 512, how, acct, sink); err != nil {
			t.Fatal(err)
		}
		return charged
	}
	gs, rs := charge(Guidesort), charge(ReplacementSelection)
	if gs >= rs {
		t.Fatalf("Guidesort charged %d compute ops, replacement selection %d; want strictly less", gs, rs)
	}
}

// TestAllFormersByteIdenticalOutput: the three run formers must produce
// byte-identical sorted output through the full polyphase sort.
func TestAllFormersByteIdenticalOutput(t *testing.T) {
	keys := bandedKeys(9, 100, 23) // deliberately unaligned with M
	var want []byte
	for _, rf := range []RunFormation{ReplacementSelection, LoadSort, Guidesort} {
		cfg := testConfig(diskio.NewMemFS(), nil)
		cfg.RunFormation = rf
		sortAndVerify(t, cfg, keys)
		out, err := diskio.ReadFileAll(cfg.FS, "output", cfg.BlockKeys, cfg.Acct)
		if err != nil {
			t.Fatal(err)
		}
		enc := record.EncodeKeys(nil, out)
		if want == nil {
			want = enc
		} else if !bytes.Equal(enc, want) {
			t.Fatalf("%v output differs from replacement-selection output", rf)
		}
	}
}

// TestGallopingIdentityAndCompute: on the runs load-sort forms from
// banded input (disjoint ranges, so maximal galloping), the galloping
// kernel emits the non-galloping reference's bytes with the same Fills
// — the same block reads — and charges strictly less compute.
func TestGallopingIdentityAndCompute(t *testing.T) {
	fs := newMemInput(t, bandedKeys(12, 128, 41))
	var runs [][]record.Key
	if _, _, err := formRuns(fs, "input", 16, 128, LoadSort, accounting(), &collectSink{runs: &runs}); err != nil {
		t.Fatal(err)
	}
	got, gotEv, gotC := mergeTrace(t, runs, 16, Merge)
	want, wantEv, wantC := mergeTrace(t, runs, 16, refMerge)
	if !bytes.Equal(record.EncodeKeys(nil, got), record.EncodeKeys(nil, want)) {
		t.Fatal("galloping changed the output bytes")
	}
	if !slices.Equal(gotEv, wantEv) {
		t.Fatal("galloping changed the Fill sequence")
	}
	if gotC >= wantC {
		t.Fatalf("galloping charged %d compute ops, baseline %d; want strictly less", gotC, wantC)
	}
}

// obsMeter captures the merge kernel's observer counters.
type obsMeter struct {
	compute                   int64
	keys, chunks, fast, comps int64
}

func (m *obsMeter) ChargeCompute(n int64) { m.compute += n }
func (m *obsMeter) ChargeIOBlocks(int64)  {}
func (m *obsMeter) ChargeSeek(int64)      {}
func (m *obsMeter) ObserveMerge(k, c, f, cm int64) {
	m.keys += k
	m.chunks += c
	m.fast += f
	m.comps += cm
}

// TestMergeGallopSkipsReplays: merging disjoint multi-block runs, the
// galloping kernel must move blocks with far fewer tree comparisons
// than the replay-per-block baseline, at identical output.
func TestMergeGallopSkipsReplays(t *testing.T) {
	mk := func() []MergeSource {
		var srcs []MergeSource
		for s := 0; s < 4; s++ {
			keys := make([]record.Key, 64)
			for i := range keys {
				keys[i] = record.Key(s*1000 + i)
			}
			srcs = append(srcs, &sliceSource{keys: keys, blk: 8})
		}
		return srcs
	}
	run := func(kernel func([]MergeSource, vtime.Meter, func([]record.Key) error) error) ([]record.Key, *obsMeter) {
		m := &obsMeter{}
		var out []record.Key
		if err := kernel(mk(), m, func(c []record.Key) error {
			out = append(out, c...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out, m
	}
	gOut, g := run(Merge)
	nOut, n := run(refMerge)
	if len(gOut) != len(nOut) {
		t.Fatalf("gallop emitted %d keys, baseline %d", len(gOut), len(nOut))
	}
	for i := range gOut {
		if gOut[i] != nOut[i] {
			t.Fatalf("outputs differ at key %d", i)
		}
	}
	if g.keys != n.keys {
		t.Fatalf("observer keys differ: %d vs %d", g.keys, n.keys)
	}
	if g.comps >= n.comps {
		t.Fatalf("gallop made %d comparisons, baseline %d; want strictly less", g.comps, n.comps)
	}
	if g.compute >= n.compute {
		t.Fatalf("gallop charged %d compute, baseline %d; want strictly less", g.compute, n.compute)
	}
	if g.fast == 0 {
		t.Fatal("no fast-path chunks observed on disjoint runs")
	}
}

// TestMergeGallopKernelProperty: galloping never changes the merged
// sequence and never charges more compute, on arbitrary sorted sources.
func TestMergeGallopKernelProperty(t *testing.T) {
	f := func(raw [][]record.Key, blk uint8) bool {
		b := int(blk%7) + 1
		mk := func() []MergeSource {
			var srcs []MergeSource
			for _, r := range raw {
				r := append([]record.Key(nil), r...)
				sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
				srcs = append(srcs, &sliceSource{keys: r, blk: b})
			}
			return srcs
		}
		run := func(kernel func([]MergeSource, vtime.Meter, func([]record.Key) error) error) ([]record.Key, int64) {
			var charged int64
			m := &captureMeter{compute: &charged}
			var out []record.Key
			if err := kernel(mk(), m, func(c []record.Key) error {
				out = append(out, c...)
				return nil
			}); err != nil {
				return nil, -1
			}
			return out, charged
		}
		gOut, gc := run(Merge)
		nOut, nc := run(refMerge)
		if gc < 0 || nc < 0 || len(gOut) != len(nOut) || gc > nc {
			return false
		}
		for i := range gOut {
			if gOut[i] != nOut[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
