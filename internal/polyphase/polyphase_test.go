package polyphase

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/record"
)

func testConfig(fs diskio.FS, c *pdm.Counter) Config {
	return Config{
		FS:         fs,
		BlockKeys:  16,
		MemoryKeys: 128,
		Tapes:      4,
		Acct:       diskio.Accounting{Counter: c},
		TempPrefix: "tmp/",
	}
}

func sortAndVerify(t *testing.T, cfg Config, keys []record.Key) Stats {
	t.Helper()
	if err := diskio.WriteFile(cfg.FS, "input", keys, cfg.BlockKeys, cfg.Acct); err != nil {
		t.Fatal(err)
	}
	stats, err := Sort(cfg, "input", "output")
	if err != nil {
		t.Fatalf("Sort: %v", err)
	}
	got, err := diskio.ReadFileAll(cfg.FS, "output", cfg.BlockKeys, cfg.Acct)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("output has %d keys, want %d", len(got), len(keys))
	}
	if !slices.IsSorted(got) {
		t.Fatal("output not sorted")
	}
	if !record.ChecksumOf(got).Equal(record.ChecksumOf(keys)) {
		t.Fatal("output is not a permutation of input")
	}
	return stats
}

func TestSortUniformBothFormers(t *testing.T) {
	for _, rf := range []RunFormation{ReplacementSelection, LoadSort} {
		t.Run(rf.String(), func(t *testing.T) {
			var c pdm.Counter
			cfg := testConfig(diskio.NewMemFS(), &c)
			cfg.RunFormation = rf
			keys := record.Uniform.Generate(5000, 42, 1)
			stats := sortAndVerify(t, cfg, keys)
			if stats.Keys != 5000 {
				t.Fatalf("stats.Keys=%d", stats.Keys)
			}
			if stats.Runs < 2 {
				t.Fatalf("expected multiple runs for out-of-core input, got %d", stats.Runs)
			}
		})
	}
}

func TestSortAllDistributions(t *testing.T) {
	for _, d := range record.Distributions() {
		t.Run(d.String(), func(t *testing.T) {
			cfg := testConfig(diskio.NewMemFS(), nil)
			sortAndVerify(t, cfg, d.Generate(3000, 7, 4))
		})
	}
}

func TestSortEdgeSizes(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 127, 128, 129, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			cfg := testConfig(diskio.NewMemFS(), nil)
			sortAndVerify(t, cfg, record.Uniform.Generate(n, int64(n), 1))
		})
	}
}

func TestSortInCoreInput(t *testing.T) {
	// Input smaller than memory: one run, no merge phase.
	cfg := testConfig(diskio.NewMemFS(), nil)
	stats := sortAndVerify(t, cfg, record.Uniform.Generate(100, 1, 1))
	if stats.Runs != 1 || stats.Phases != 0 {
		t.Fatalf("expected 1 run, 0 phases; got %+v", stats)
	}
}

func TestSortAllEqualKeys(t *testing.T) {
	cfg := testConfig(diskio.NewMemFS(), nil)
	keys := make([]record.Key, 2000)
	for i := range keys {
		keys[i] = 7
	}
	sortAndVerify(t, cfg, keys)
}

func TestSortAlreadySortedMakesFewRuns(t *testing.T) {
	// Replacement selection turns sorted input into a single run.
	cfg := testConfig(diskio.NewMemFS(), nil)
	stats := sortAndVerify(t, cfg, record.Sorted.Generate(5000, 1, 1))
	if stats.Runs != 1 {
		t.Fatalf("replacement selection on sorted input should give 1 run, got %d", stats.Runs)
	}
}

func TestSortReverseMakesManyRuns(t *testing.T) {
	cfg := testConfig(diskio.NewMemFS(), nil)
	stats := sortAndVerify(t, cfg, record.Reverse.Generate(5000, 1, 1))
	// Reverse input defeats replacement selection: runs of ~M keys.
	if stats.Runs < 30 {
		t.Fatalf("reverse input should yield ~n/M runs, got %d", stats.Runs)
	}
}

func TestReplacementSelectionRunLengthAdvantage(t *testing.T) {
	mk := func(rf RunFormation) Stats {
		cfg := testConfig(diskio.NewMemFS(), nil)
		cfg.RunFormation = rf
		return sortAndVerify(t, cfg, record.Uniform.Generate(20000, 9, 1))
	}
	rs := mk(ReplacementSelection)
	ls := mk(LoadSort)
	// Knuth: replacement selection averages runs of 2M, so about half
	// as many runs as memory-load sorting.
	if float64(rs.Runs) > 0.7*float64(ls.Runs) {
		t.Fatalf("replacement selection runs=%d not clearly fewer than load-sort runs=%d", rs.Runs, ls.Runs)
	}
}

func TestSortTapeCounts(t *testing.T) {
	for _, tapes := range []int{3, 4, 6, 8, 15} {
		t.Run(fmt.Sprint(tapes), func(t *testing.T) {
			cfg := testConfig(diskio.NewMemFS(), nil)
			cfg.Tapes = tapes
			cfg.MemoryKeys = tapes * cfg.BlockKeys * 2
			sortAndVerify(t, cfg, record.Uniform.Generate(8000, 3, 1))
		})
	}
}

func TestMoreTapesFewerPhases(t *testing.T) {
	run := func(tapes int) Stats {
		cfg := testConfig(diskio.NewMemFS(), nil)
		cfg.Tapes = tapes
		cfg.MemoryKeys = 256
		cfg.RunFormation = LoadSort
		return sortAndVerify(t, cfg, record.Uniform.Generate(40000, 5, 1))
	}
	if three, eight := run(3), run(8); three.Phases <= eight.Phases {
		t.Fatalf("3 tapes should need more phases than 8: %d vs %d", three.Phases, eight.Phases)
	}
}

func TestSortIOWithinPaperBudget(t *testing.T) {
	// The paper budgets step 1 at 2*l*(1+ceil(log_m l)) item I/Os; in
	// block terms 2*lb*(1+ceil(log_m lb)).  Our polyphase should be
	// within a small constant of it (polyphase phases touch only part
	// of the data, but the distribution pass plus final pass add up).
	var c pdm.Counter
	cfg := testConfig(diskio.NewMemFS(), &c)
	keys := record.Uniform.Generate(50000, 11, 1)
	if err := diskio.WriteFile(cfg.FS, "input", keys, cfg.BlockKeys, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	params := pdm.Params{N: int64(len(keys)), M: int64(cfg.MemoryKeys), B: int64(cfg.BlockKeys), D: 1, P: 1}
	budget := params.SequentialSortIOs(int64(len(keys)))
	if got := c.Total(); got > 2*budget {
		t.Fatalf("I/Os %d exceed twice the paper budget %d", got, budget)
	}
	if got := c.Total(); got < params.ScanBound() {
		t.Fatalf("I/Os %d below a single scan %d — accounting broken", got, params.ScanBound())
	}
}

func TestSortCleansTapes(t *testing.T) {
	fs := diskio.NewMemFS()
	cfg := testConfig(fs, nil)
	sortAndVerify(t, cfg, record.Uniform.Generate(3000, 2, 1))
	names, _ := fs.Names()
	for _, n := range names {
		if n != "input" && n != "output" {
			t.Fatalf("leftover scratch file %q", n)
		}
	}
}

func TestSortPropertyRandomSizes(t *testing.T) {
	f := func(seed int64, sizeRaw uint16) bool {
		n := int(sizeRaw % 2048)
		cfg := testConfig(diskio.NewMemFS(), nil)
		keys := record.Uniform.Generate(n, seed, 1)
		if err := diskio.WriteFile(cfg.FS, "input", keys, cfg.BlockKeys, cfg.Acct); err != nil {
			return false
		}
		if _, err := Sort(cfg, "input", "output"); err != nil {
			return false
		}
		got, err := diskio.ReadFileAll(cfg.FS, "output", cfg.BlockKeys, cfg.Acct)
		if err != nil || !slices.IsSorted(got) {
			return false
		}
		return record.ChecksumOf(got).Equal(record.ChecksumOf(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSortOnDirFS(t *testing.T) {
	d, err := diskio.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(d, nil)
	sortAndVerify(t, cfg, record.Uniform.Generate(10000, 13, 1))
}

func TestSortSurfacesDiskFaults(t *testing.T) {
	inner := diskio.NewMemFS()
	keys := record.Uniform.Generate(2000, 3, 1)
	if err := diskio.WriteFile(inner, "input", keys, 16, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	// Budget chosen to fail mid-merge rather than at setup.
	ffs := diskio.NewFaultFS(inner, 200)
	cfg := testConfig(ffs, nil)
	_, err := Sort(cfg, "input", "output")
	if !errors.Is(err, diskio.ErrInjected) {
		t.Fatalf("want injected fault surfaced, got %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	fs := diskio.NewMemFS()
	cases := []Config{
		{FS: nil, BlockKeys: 8, MemoryKeys: 64, Tapes: 4},
		{FS: fs, BlockKeys: 0, MemoryKeys: 64, Tapes: 4},
		{FS: fs, BlockKeys: 8, MemoryKeys: 64, Tapes: 2},
		{FS: fs, BlockKeys: 8, MemoryKeys: 16, Tapes: 4},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	good := Config{FS: fs, BlockKeys: 8, MemoryKeys: 64, Tapes: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestDistributorFibonacciTargets(t *testing.T) {
	// For T=4 (3 input tapes) the perfect-distribution totals follow
	// the 3rd-order Fibonacci sequence: levels sum to 1,3,5,9,17,31...
	inputs := []*tape{{}, {}, {}}
	d := newDistributor(inputs)
	sums := []int64{}
	for l := 0; l < 6; l++ {
		var s int64
		for _, a := range d.target {
			s += a
		}
		sums = append(sums, s)
		d.levelUp()
	}
	want := []int64{3, 5, 9, 17, 31, 57}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("level %d total=%d want %d (%v)", i+1, sums[i], want[i], sums)
		}
	}
}

func TestMergeFilesBasic(t *testing.T) {
	fs := diskio.NewMemFS()
	cfg := testConfig(fs, nil)
	var all []record.Key
	var names []string
	for i := 0; i < 7; i++ {
		part := record.Uniform.Generate(500+i*37, int64(i), 1)
		sort.Slice(part, func(a, b int) bool { return part[a] < part[b] })
		name := fmt.Sprintf("part%d", i)
		if err := diskio.WriteFile(fs, name, part, cfg.BlockKeys, cfg.Acct); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		all = append(all, part...)
	}
	if err := MergeFiles(cfg, names, "merged"); err != nil {
		t.Fatal(err)
	}
	got, err := diskio.ReadFileAll(fs, "merged", cfg.BlockKeys, cfg.Acct)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) {
		t.Fatal("merge output not sorted")
	}
	if !record.ChecksumOf(got).Equal(record.ChecksumOf(all)) {
		t.Fatal("merge lost or invented keys")
	}
}

func TestMergeFilesZeroAndOne(t *testing.T) {
	fs := diskio.NewMemFS()
	cfg := testConfig(fs, nil)
	if err := MergeFiles(cfg, nil, "empty"); err != nil {
		t.Fatal(err)
	}
	if n, _ := diskio.CountKeys(fs, "empty"); n != 0 {
		t.Fatalf("empty merge produced %d keys", n)
	}
	keys := []record.Key{3, 1, 2}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	diskio.WriteFile(fs, "solo", keys, cfg.BlockKeys, cfg.Acct)
	if err := MergeFiles(cfg, []string{"solo"}, "copy"); err != nil {
		t.Fatal(err)
	}
	got, _ := diskio.ReadFileAll(fs, "copy", cfg.BlockKeys, cfg.Acct)
	if len(got) != 3 || !slices.IsSorted(got) {
		t.Fatalf("single-input merge broken: %v", got)
	}
	// Original must survive.
	if _, err := fs.Open("solo"); err != nil {
		t.Fatal("single input was consumed")
	}
}

func TestMergeFilesMultiPass(t *testing.T) {
	// More inputs than the fan-in forces multiple passes.
	fs := diskio.NewMemFS()
	cfg := testConfig(fs, nil)
	cfg.Tapes = 3 // fan-in of 2
	var names []string
	var all []record.Key
	for i := 0; i < 9; i++ {
		part := record.Gaussian.Generate(100, int64(i), 1)
		sort.Slice(part, func(a, b int) bool { return part[a] < part[b] })
		name := fmt.Sprintf("p%d", i)
		diskio.WriteFile(fs, name, part, cfg.BlockKeys, cfg.Acct)
		names = append(names, name)
		all = append(all, part...)
	}
	if err := MergeFiles(cfg, names, "merged"); err != nil {
		t.Fatal(err)
	}
	got, _ := diskio.ReadFileAll(fs, "merged", cfg.BlockKeys, cfg.Acct)
	if !slices.IsSorted(got) || !record.ChecksumOf(got).Equal(record.ChecksumOf(all)) {
		t.Fatal("multi-pass merge incorrect")
	}
	// Scratch files cleaned up.
	namesLeft, _ := fs.Names()
	for _, n := range namesLeft {
		if len(n) >= 4 && n[:4] == "tmp/" {
			t.Fatalf("leftover scratch %q", n)
		}
	}
}

func TestMergeFilesEmptyInputs(t *testing.T) {
	fs := diskio.NewMemFS()
	cfg := testConfig(fs, nil)
	diskio.WriteFile(fs, "a", nil, cfg.BlockKeys, cfg.Acct)
	diskio.WriteFile(fs, "b", []record.Key{5}, cfg.BlockKeys, cfg.Acct)
	diskio.WriteFile(fs, "c", nil, cfg.BlockKeys, cfg.Acct)
	if err := MergeFiles(cfg, []string{"a", "b", "c"}, "out"); err != nil {
		t.Fatal(err)
	}
	got, _ := diskio.ReadFileAll(fs, "out", cfg.BlockKeys, cfg.Acct)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestRunFormationStrings(t *testing.T) {
	if ReplacementSelection.String() != "replacement-selection" || LoadSort.String() != "load-sort" {
		t.Fatal("RunFormation strings")
	}
}

func TestSortInPlaceSameName(t *testing.T) {
	// Sorting a file onto its own name replaces it with the sorted
	// content (the final tape is renamed over it).
	fs := diskio.NewMemFS()
	cfg := testConfig(fs, nil)
	keys := record.Uniform.Generate(3000, 77, 1)
	if err := diskio.WriteFile(fs, "data", keys, cfg.BlockKeys, cfg.Acct); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(cfg, "data", "data"); err != nil {
		t.Fatal(err)
	}
	got, err := diskio.ReadFileAll(fs, "data", cfg.BlockKeys, cfg.Acct)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSorted(got) || !record.ChecksumOf(got).Equal(record.ChecksumOf(keys)) {
		t.Fatal("in-place sort broken")
	}
}
