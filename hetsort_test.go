package hetsort

import (
	"bufio"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"hetsort/internal/diskio"
	"hetsort/internal/service"
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
	if _, _, err := Sort(keys, Config{Network: Network(7)}); err == nil {
		t.Fatal("bad network accepted")
	}
	for _, net := range []Network{NetworkFastEthernet, NetworkMyrinet, NetworkIdeal} {
		if _, _, err := Sort(keys, Config{Network: net}); err != nil {
			t.Errorf("network %v rejected: %v", net, err)
		}
	}
	if _, _, err := Sort(keys, Config{RunFormation: RunFormation(7)}); err == nil {
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
	for _, topo := range []Topology{TopologyFlat, TopologyGrid} {
		if _, _, err := Sort(keys, Config{Topology: topo, Radix: 1}); err != nil {
			t.Errorf("topology %v rejected the Radix it ignores: %v", topo, err)
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
	want := make([]uint32, n)
	for i := range want {
		want[i] = 2654435761 * uint32(i+7)
		binary.LittleEndian.PutUint32(buf[:], want[i])
		w.Write(buf[:])
	}
	w.Flush()
	f.Close()
	slices.Sort(want)

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
	// The output is the sorted input as little-endian uint32 values.
	for i, k := range want {
		if got := binary.LittleEndian.Uint32(out[i*4:]); got != k {
			t.Fatalf("output key %d is %#x, want %#x", i, got, k)
		}
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
	for _, strat := range []PivotStrategy{PivotRegularSampling, PivotRandom, PivotHistogram} {
		t.Run(strat.String(), func(t *testing.T) {
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
	if _, _, err := Sort(keys, Config{PivotStrategy: PivotStrategy(7)}); err == nil {
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
	if _, _, err := Sort(keys, Config{Algorithm: Algorithm(7)}); err == nil {
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

// TestSortGivesItsPagesBack is the leak check of the MemFS page pool:
// every entry point on in-memory node disks removes every file it leaves
// there and closes every handle it opened, on every return path, so each
// page its disks took from the pool is back when it returns.  A handle
// left open on a hot path fails here instead of silently allocating
// fresh pages on every sort.
func TestSortGivesItsPagesBack(t *testing.T) {
	perfV := []int{1, 1, 4, 4}
	n, err := ValidSize(perfV, 40000)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key(2654435761 * uint32(i+1))
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.u32"), filepath.Join(dir, "out.u32")
	writeKeyFile(t, in, int(n))
	base := Config{Perf: perfV, MemoryKeys: 4096, BlockKeys: 128, Tapes: 15, MessageKeys: 512}
	wide := Config{Perf: perfV, MemoryKeys: 1024, BlockKeys: 64, Tapes: 4, MessageKeys: 128,
		RunFormation: RunGuidesort, PivotStrategy: PivotHistogram,
		Topology: TopologyTree, Radix: 2, Overlap: true, Checkpoint: CheckpointConfig{Enabled: true}}
	crash := base
	crash.Checkpoint = CheckpointConfig{Enabled: true, CrashPhase: 3, CrashNode: 2}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Sort", func() error { _, _, err := Sort(keys, base); return err }},
		{"Sort wide", func() error { _, _, err := Sort(keys, wide); return err }},
		{"SortFile", func() error { _, err := SortFile(in, out, base); return err }},
		{"CalibrateReport", func() error { _, err := CalibrateReport(base, 10000); return err }},
		{"Sort crashed at phase 3", func() error {
			if _, _, err := Sort(keys, crash); !IsCrash(err) {
				return fmt.Errorf("want the injected crash, got %v", err)
			}
			return nil
		}},
	} {
		before := diskio.MemFSPages()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if after := diskio.MemFSPages(); after != before {
			t.Errorf("%s: MemFS held %d pages before and %d after", tc.name, before, after)
		}
	}
}

// retiredSketch is the name of the deleted quantile sketch pivot
// strategy, spelled in two pieces so that a search for the name finds
// only the docs that record its retirement.
const retiredSketch = "quantile" + "-sketch"

// TestBadConfigFailsBeforeDataMoves: every configuration error is
// reported before a node directory is created or the input is opened,
// so a missing input path does not mask it.  A typed enum value its
// table does not name is one.
func TestBadConfigFailsBeforeDataMoves(t *testing.T) {
	dir := t.TempDir()
	two := []int{1, 1}
	for i, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Perf: two, Checkpoint: CheckpointConfig{Enabled: true, CrashPhase: 6}}, "CrashPhase"},
		{Config{Perf: two, Checkpoint: CheckpointConfig{Enabled: true, CrashPhase: 2, CrashNode: 7}}, "CrashNode"},
		{Config{Perf: two, Algorithm: Algorithm(5)}, "unknown algorithm 5 (want external-psrs or dewitt)"},
		{Config{Perf: two, Network: Network(7)}, "unknown network 7"},
		{Config{Perf: two, RunFormation: RunFormation(7)}, "unknown run formation 7"},
		{Config{Perf: two, PivotStrategy: PivotStrategy(-1)}, "unknown pivot strategy -1 (want regular-sampling, random-pivots or histogram)"},
		{Config{Perf: two, Topology: Topology(3)}, "unknown topology 3"},
		{Config{Perf: two, DiskAccess: DiskAccess(9), Disks: 2}, "unknown disk access mode 9"},
		{Config{Perf: two, Algorithm: AlgorithmDeWitt, Checkpoint: CheckpointConfig{Enabled: true}}, "checkpointing"},
		{Config{Perf: two, Topology: TopologyTree, Radix: -1}, "Radix"},
	} {
		tc.cfg.WorkDir = filepath.Join(dir, fmt.Sprintf("work%d", i))
		_, err := SortFile(filepath.Join(dir, "missing"), filepath.Join(dir, "out"), tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: got %v, want the configuration error naming %q", i, err, tc.want)
		}
		if _, err := os.Stat(tc.cfg.WorkDir); !os.IsNotExist(err) {
			t.Errorf("case %d: the work directory was created before the configuration was checked", i)
		}
	}
}

// enumValue is one of the six typed enums a Config names.
type enumValue interface {
	~int
	fmt.Stringer
	encoding.TextMarshaler
}

// TestNameTablesRoundTrip holds each of the six enums to its one names
// table: every name round-trips through MarshalText/UnmarshalText, JSON
// and flag.TextVar; "" is the default; and an unknown name — "bogus",
// or a retired one — is refused with an error listing the accepted
// ones, as is a value out of the table's range.
func TestNameTablesRoundTrip(t *testing.T) {
	roundTrip[Network](t)
	roundTrip[RunFormation](t)
	roundTrip[Algorithm](t)
	roundTrip[PivotStrategy](t, "overpartitioning", retiredSketch)
	roundTrip[Topology](t)
	roundTrip[DiskAccess](t)

	// A JobSpec carries the topology by name, and stores the default
	// as the field's absence.
	var sp service.JobSpec
	if err := json.Unmarshal([]byte(`{"gen":{"count":8},"topology":"tree"}`), &sp); err != nil || sp.Topology != TopologyTree {
		t.Errorf(`"topology":"tree" decodes to %v, %v`, sp.Topology, err)
	}
	if b, err := json.Marshal(&sp); err != nil || !strings.Contains(string(b), `"topology":"tree"`) {
		t.Errorf("a tree spec encodes to %s, %v", b, err)
	}
	sp.Topology = TopologyFlat
	if b, err := json.Marshal(&sp); err != nil || strings.Contains(string(b), "topology") {
		t.Errorf("a flat spec encodes to %s, %v; want no topology field", b, err)
	}
	if err := json.Unmarshal([]byte(`{"topology":"bogus"}`), &sp); err == nil || !strings.Contains(err.Error(), "flat, tree or grid") {
		t.Errorf(`"topology":"bogus" decodes with %v`, err)
	}
}

// roundTrip checks one enum E as TestNameTablesRoundTrip says, retired
// naming names that must be refused besides "bogus".
func roundTrip[E enumValue, P interface {
	*E
	encoding.TextUnmarshaler
}](t *testing.T, retired ...string) {
	t.Helper()
	var names []string
	var rangeErr error
	for e := E(0); rangeErr == nil; e++ {
		b, err := e.MarshalText()
		if rangeErr = err; err != nil {
			break
		}
		names = append(names, string(b))
		if e.String() != string(b) {
			t.Errorf("%T %d prints %q but marshals to %q", e, int(e), e, b)
		}
		var back E
		if err := P(&back).UnmarshalText(b); err != nil || back != e {
			t.Errorf("%T %q unmarshals to %v, %v", e, b, back, err)
		}
		var field struct{ V E }
		if j, err := json.Marshal(struct{ V E }{e}); err != nil || string(j) != `{"V":"`+string(b)+`"}` {
			t.Errorf("%T %q encodes to %s, %v", e, b, j, err)
		} else if err := json.Unmarshal(j, &field); err != nil || field.V != e {
			t.Errorf("%T %s decodes to %v, %v", e, j, field.V, err)
		}
		if v, err := parseFlag[E, P](string(b)); err != nil || v != e {
			t.Errorf("%T flag %q sets %v, %v", e, b, v, err)
		}
	}
	if len(names) < 2 {
		t.Fatalf("%T names %v", E(0), names)
	}
	last := E(len(names) - 1)
	if err := P(&last).UnmarshalText(nil); err != nil || last != 0 {
		t.Errorf(`%T "" unmarshals to %v, %v; want the default %s`, last, last, err, names[0])
	}
	errs := []error{rangeErr}
	for _, bad := range append([]string{"bogus"}, retired...) {
		var v E
		errs = append(errs, P(&v).UnmarshalText([]byte(bad)))
		_, err := parseFlag[E, P](bad)
		errs = append(errs, err)
		errs = append(errs, json.Unmarshal([]byte(`{"V":"`+bad+`"}`), &struct{ V E }{}))
	}
	want := strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
	for _, err := range errs {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%T: error %v does not list %s", E(0), err, want)
		}
	}
}

// parseFlag sets an E through flag.TextVar, as the commands do.
func parseFlag[E enumValue, P interface {
	*E
	encoding.TextUnmarshaler
}](arg string) (E, error) {
	fs := flag.NewFlagSet("enum", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var v E
	fs.TextVar(P(&v), "x", E(0), "")
	err := fs.Parse([]string{"-x", arg})
	return v, err
}
