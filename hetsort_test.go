package hetsort

import (
	"bufio"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSortDefaultConfig(t *testing.T) {
	keys := make([]Key, 20000)
	for i := range keys {
		keys[i] = Key(1664525*uint32(i) + 1013904223)
	}
	sorted, rep, err := Sort(keys, Config{MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(sorted) != len(keys) {
		t.Fatalf("length %d", len(sorted))
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted")
	}
	if rep.Time <= 0 {
		t.Fatal("no time in report")
	}
	if rep.SublistExpansion < 0.99 {
		t.Fatalf("expansion %v", rep.SublistExpansion)
	}
	if len(rep.PartitionSizes) != 4 {
		t.Fatalf("partitions %v", rep.PartitionSizes)
	}
}

func TestSortHeterogeneous(t *testing.T) {
	perfV := []int{1, 1, 4, 4}
	n, err := ValidSize(perfV, 20000)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(2654435761 * uint32(i+1))
	}
	sorted, rep, err := Sort(keys, Config{
		Perf: perfV, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted")
	}
	// Fast nodes carry about 4x the slow nodes' final partitions.
	slow := rep.PartitionSizes[0] + rep.PartitionSizes[1]
	fast := rep.PartitionSizes[2] + rep.PartitionSizes[3]
	if fast < 3*slow {
		t.Fatalf("fast/slow imbalance: %v", rep.PartitionSizes)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestSortOverlapReport(t *testing.T) {
	keys := make([]Key, 20000)
	for i := range keys {
		keys[i] = Key(1664525*uint32(i) + 1013904223)
	}
	cfg := Config{MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512}
	_, syncRep, err := Sort(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overlap = true
	sorted, rep, err := Sort(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted")
	}
	if rep.Time >= syncRep.Time {
		t.Fatalf("overlapped %v virtual s not below synchronous %v", rep.Time, syncRep.Time)
	}
	if rep.ReadBlocks != syncRep.ReadBlocks || rep.WriteBlocks != syncRep.WriteBlocks {
		t.Fatalf("overlap changed I/O counts: %d/%d vs %d/%d",
			rep.ReadBlocks, rep.WriteBlocks, syncRep.ReadBlocks, syncRep.WriteBlocks)
	}
	var hidden float64
	for _, b := range rep.NodeBreakdown {
		hidden += b.Overlapped
	}
	if hidden <= 0 {
		t.Fatal("no disk time hidden in the node breakdown")
	}
	for i, m := range rep.NodeMetrics {
		if m["disk.prefetch.blocks"] <= 0 {
			t.Errorf("node %d metrics missing prefetch counters: %v", i, m)
		}
		if m["disk.writebehind.blocks"] <= 0 {
			t.Errorf("node %d metrics missing write-behind counters: %v", i, m)
		}
	}
	if !strings.Contains(rep.String(), "overlapped") {
		t.Fatal("report table lost the overlapped column")
	}
}

// TestSortOverlapMetricsDeterministic: the prefetch metrics are model
// quantities, counted where the overlapped charge is made — two runs of
// one seeded config agree on every node, every overlapped read block is
// either a hit (transfer wholly hidden by accrued credit) or a stall,
// and no host-scheduling quantity (the old write-behind queue depth) is
// reported.
func TestSortOverlapMetricsDeterministic(t *testing.T) {
	keys := make([]Key, 40000)
	for i := range keys {
		keys[i] = Key(1664525*uint32(i) + 1013904223)
	}
	cfg := Config{Perf: []int{1, 1, 4, 4}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
		Disks: 2, Overlap: true}
	_, a, err := Sort(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Sort(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hits, stalls float64
	for i, m := range a.NodeMetrics {
		for _, name := range []string{"disk.prefetch.blocks", "disk.prefetch.hits", "disk.prefetch.stalls", "disk.writebehind.blocks"} {
			if m[name] != b.NodeMetrics[i][name] {
				t.Errorf("node %d %s: %v in one run, %v in the next", i, name, m[name], b.NodeMetrics[i][name])
			}
		}
		if m["disk.prefetch.hits"]+m["disk.prefetch.stalls"] != m["disk.prefetch.blocks"] {
			t.Errorf("node %d: %v hits + %v stalls != %v prefetched blocks", i,
				m["disk.prefetch.hits"], m["disk.prefetch.stalls"], m["disk.prefetch.blocks"])
		}
		if rw := a.NodeIO[i]; m["disk.prefetch.blocks"] > float64(rw.Reads) || m["disk.writebehind.blocks"] > float64(rw.Writes) {
			t.Errorf("node %d: overlapped blocks %v/%v exceed its PDM reads/writes %d/%d", i,
				m["disk.prefetch.blocks"], m["disk.writebehind.blocks"], rw.Reads, rw.Writes)
		}
		for name := range m {
			if strings.HasPrefix(name, "disk.writebehind.queue") {
				t.Errorf("node %d still reports %s", i, name)
			}
		}
		hits += m["disk.prefetch.hits"]
		stalls += m["disk.prefetch.stalls"]
	}
	if hits == 0 || stalls == 0 {
		t.Errorf("degenerate run: %v hits, %v stalls", hits, stalls)
	}
}

func TestSortDoesNotMutateInput(t *testing.T) {
	keys := []Key{5, 3, 1, 4, 2, 9, 8, 7, 6, 0}
	orig := append([]Key(nil), keys...)
	if _, _, err := Sort(keys, Config{Nodes: 2, MemoryKeys: 64, BlockKeys: 4, Tapes: 3, MessageKeys: 8}); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if keys[i] != orig[i] {
			t.Fatal("input mutated")
		}
	}
}

func TestSortConfigErrors(t *testing.T) {
	keys := []Key{1, 2}
	if _, _, err := Sort(keys, Config{Perf: []int{1, 0}}); err == nil {
		t.Fatal("bad perf accepted")
	}
	if _, _, err := Sort(keys, Config{Network: "token-ring"}); err == nil {
		t.Fatal("bad network accepted")
	}
	for _, net := range []string{NetworkFastEthernet, NetworkMyrinet, NetworkIdeal} {
		if _, _, err := Sort(keys, Config{Network: net}); err != nil {
			t.Errorf("network %q rejected: %v", net, err)
		}
	}
	if _, _, err := Sort(keys, Config{RunFormation: "bogosort"}); err == nil {
		t.Fatal("bad run formation accepted")
	}
	if _, _, err := Sort(keys, Config{Nodes: 2, Loads: []float64{1}}); err == nil {
		t.Fatal("mismatched loads accepted")
	}
}

// TestRadixIgnoredUnlessTree holds Config.Radix to its documentation:
// flat and grid derive their fan-in from p, so a Radix no tree could use
// must not fail them (it used to: "Radix=1 must be >= 2").
func TestRadixIgnoredUnlessTree(t *testing.T) {
	keys := []Key{5, 3, 8, 1, 9, 2, 7, 4}
	for _, topo := range []string{TopologyFlat, TopologyGrid} {
		if _, _, err := Sort(keys, Config{Topology: topo, Radix: 1}); err != nil {
			t.Errorf("topology %q rejected the Radix it ignores: %v", topo, err)
		}
	}
	if _, _, err := Sort(keys, Config{Topology: TopologyTree, Radix: 1}); err == nil || !strings.Contains(err.Error(), "Radix") {
		t.Errorf("tree accepted Radix=1: %v", err)
	}
}

func TestSortRejectsBadTuningValues(t *testing.T) {
	// NaN compares false against everything, so a plain `tol <= 0`
	// guard waves it through; the config validation must reject it
	// before it reaches the refiner.
	keys := []Key{3, 1, 2}
	for _, tol := range []float64{math.NaN(), math.Inf(1), -0.1, 1, 1.5} {
		if _, _, err := Sort(keys, Config{PivotStrategy: PivotHistogram, HistTolerance: tol}); err == nil {
			t.Errorf("HistTolerance=%v accepted", tol)
		} else if !strings.Contains(err.Error(), "HistTolerance") {
			t.Errorf("HistTolerance=%v error does not name the field: %v", tol, err)
		}
	}
	// The zero value still means "use the default".
	if _, _, err := Sort(keys, Config{PivotStrategy: PivotHistogram}); err != nil {
		t.Fatalf("default tolerance rejected: %v", err)
	}
}

func TestSortProperty(t *testing.T) {
	cfg := Config{Nodes: 3, MemoryKeys: 512, BlockKeys: 16, Tapes: 4, MessageKeys: 64}
	f := func(keys []Key) bool {
		sorted, _, err := Sort(keys, cfg)
		if err != nil || len(sorted) != len(keys) {
			return false
		}
		if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
			return false
		}
		var a, b uint64
		for i := range keys {
			a += uint64(keys[i])
			b += uint64(sorted[i])
		}
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateRecoversLoads(t *testing.T) {
	vec, times, err := Calibrate(Config{
		Perf: []int{1, 1, 4, 4}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5,
	}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 4, 4}
	for i := range want {
		if vec[i] != want[i] {
			t.Fatalf("calibrated %v (times %v) want %v", vec, times, want)
		}
	}
	if _, _, err := Calibrate(Config{}, 0); err == nil {
		t.Fatal("zero keys accepted")
	}
}

func TestValidSize(t *testing.T) {
	n, err := ValidSize([]int{1, 1, 4, 4}, 1<<24)
	if err != nil || n != 16777220 {
		t.Fatalf("ValidSize=%d,%v", n, err)
	}
	if _, err := ValidSize([]int{0}, 10); err == nil {
		t.Fatal("bad vector accepted")
	}
}

func TestSortFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.u32")
	outPath := filepath.Join(dir, "out.u32")

	const n = 50000
	f, err := os.Create(inPath)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	var buf [4]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[:], 2654435761*uint32(i+7))
		w.Write(buf[:])
	}
	w.Flush()
	f.Close()

	rep, err := SortFile(inPath, outPath, Config{
		Perf: []int{1, 2, 2}, WorkDir: filepath.Join(dir, "work"),
		MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time <= 0 {
		t.Fatal("no report time")
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n*4 {
		t.Fatalf("output %d bytes", len(out))
	}
	prev := uint32(0)
	for i := 0; i < n; i++ {
		k := binary.LittleEndian.Uint32(out[i*4:])
		if k < prev {
			t.Fatalf("output unsorted at %d", i)
		}
		prev = k
	}
	// The node work directories must exist on real disk.
	if _, err := os.Stat(filepath.Join(dir, "work", "node0")); err != nil {
		t.Fatal("work dir missing")
	}
}

func TestSortFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := SortFile(filepath.Join(dir, "missing"), filepath.Join(dir, "out"), Config{}); err == nil {
		t.Fatal("missing input accepted")
	}
	ragged := filepath.Join(dir, "ragged")
	os.WriteFile(ragged, []byte{1, 2, 3}, 0o644)
	if _, err := SortFile(ragged, filepath.Join(dir, "out"), Config{}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestSortWithTrace(t *testing.T) {
	keys := make([]Key, 8000)
	for i := range keys {
		keys[i] = Key(2246822519 * uint32(i+3))
	}
	_, rep, err := Sort(keys, Config{
		Nodes: 2, MemoryKeys: 1024, BlockKeys: 64, Tapes: 4, MessageKeys: 128, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline == "" || rep.Gantt == "" {
		t.Fatal("trace requested but not attached")
	}
	for _, frag := range []string{"1:sequential-sort", "4:redistribution", "send", "recv"} {
		if !strings.Contains(rep.Timeline+rep.Gantt, frag) {
			t.Errorf("trace missing %q", frag)
		}
	}
}

func TestSortWithoutTraceHasNoTimeline(t *testing.T) {
	keys := []Key{3, 1, 2, 5, 4, 9, 0, 8}
	_, rep, err := Sort(keys, Config{Nodes: 2, MemoryKeys: 64, BlockKeys: 4, Tapes: 3, MessageKeys: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timeline != "" || rep.Gantt != "" {
		t.Fatal("trace attached without being requested")
	}
}

func TestSortPivotStrategies(t *testing.T) {
	keys := make([]Key, 24000)
	for i := range keys {
		keys[i] = Key(2654435761 * uint32(i+13))
	}
	for _, strat := range []string{PivotRegularSampling, PivotRandom, PivotQuantileSketch, PivotHistogram} {
		t.Run(strat, func(t *testing.T) {
			sorted, rep, err := Sort(keys, Config{
				PivotStrategy: strat, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
				t.Fatal("not sorted")
			}
			if rep.SublistExpansion <= 0 {
				t.Fatal("no expansion metric")
			}
		})
	}
	if _, _, err := Sort(keys, Config{PivotStrategy: "bogopivot"}); err == nil {
		t.Fatal("bad pivot strategy accepted")
	}
}

func TestSortDeWittAlgorithm(t *testing.T) {
	keys := make([]Key, 20000)
	for i := range keys {
		keys[i] = Key(40503*uint32(i+1) + 12345)
	}
	sorted, rep, err := Sort(keys, Config{
		Algorithm: AlgorithmDeWitt, Perf: []int{1, 1, 4, 4},
		MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i] < sorted[j] }) {
		t.Fatal("not sorted")
	}
	if rep.Time <= 0 {
		t.Fatal("no time")
	}
	// The baseline reports no per-step breakdown.
	var stepSum float64
	for _, s := range rep.StepTimes {
		stepSum += s
	}
	if stepSum != 0 {
		t.Fatalf("DeWitt should have no step breakdown, got %v", rep.StepTimes)
	}
	if _, _, err := Sort(keys, Config{Algorithm: "bogosort"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParsePerf(t *testing.T) {
	v, err := ParsePerf(" 1, 1,4,4 ")
	if err != nil || len(v) != 4 || v[2] != 4 {
		t.Fatalf("ParsePerf: %v %v", v, err)
	}
	for _, bad := range []string{"", "a", "1,0", "1,-2", "1,,2"} {
		if _, err := ParsePerf(bad); err == nil {
			t.Errorf("ParsePerf(%q) accepted", bad)
		}
	}
}

func TestParseLoads(t *testing.T) {
	l, err := ParseLoads("4,4,1,1.5")
	if err != nil || len(l) != 4 || l[3] != 1.5 {
		t.Fatalf("ParseLoads: %v %v", l, err)
	}
	for _, bad := range []string{"x", "0.5", "1,0.99"} {
		if _, err := ParseLoads(bad); err == nil {
			t.Errorf("ParseLoads(%q) accepted", bad)
		}
	}
}
