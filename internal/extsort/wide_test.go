package extsort

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"hetsort/internal/checkpoint"
	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

// TestEightNodeMixedGenerations runs Algorithm 1 on the paper's worked
// Equation-2 example vector {8,5,3,1} extended to 8 nodes.
func TestEightNodeMixedGenerations(t *testing.T) {
	v := perf.Vector{8, 5, 3, 1, 8, 5, 3, 1}
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(v)
	n := v.NearestValidSize(60000)
	res := runSort(t, c, v, cfg, record.Uniform, n, 101)
	// Class-8 nodes must carry ~8x the class-1 nodes.
	slow := res.PartitionSizes[3] + res.PartitionSizes[7]
	fast := res.PartitionSizes[0] + res.PartitionSizes[4]
	if fast < 5*slow {
		t.Fatalf("class-8 nodes should dominate: %v", res.PartitionSizes)
	}
	// PSRS 2x bound per node.
	var total int64
	for _, s := range res.PartitionSizes {
		total += s
	}
	for i, s := range res.PartitionSizes {
		opt := float64(total) * float64(v[i]) / float64(v.Sum())
		if float64(s) > 2*opt+1 {
			t.Fatalf("node %d: %d keys > 2x optimal %v", i, s, opt)
		}
	}
}

func TestPivotsReportedAndSorted(t *testing.T) {
	v := perf.Homogeneous(4)
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, 20000, 103)
	if len(res.Pivots) != 3 {
		t.Fatalf("pivots %v", res.Pivots)
	}
	if !slices.IsSorted(res.Pivots) {
		t.Fatal("pivots unsorted")
	}
}

func TestNodeClocksNonDecreasingAcrossSteps(t *testing.T) {
	v := perf.Vector{1, 2}
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(16000), 107)
	for i, clock := range res.NodeClocks {
		if clock <= 0 {
			t.Fatalf("node %d clock %v", i, clock)
		}
	}
	// Total I/O must cover at least 4 full passes over each node's
	// share of the data (sort in+out, partition in+out).
	for i, io := range res.NodeIO {
		if io.Total() == 0 {
			t.Fatalf("node %d recorded no I/O", i)
		}
	}
	_ = res
}

// TestOwnSegmentStaysOnDisk: step 4 moves only what changes node.  Node
// i reads the l_i − s_ii keys it sends and writes the q_i − s_ii keys it
// receives; its own bucket s_ii is neither read nor written until step 5
// merges it from its section of the sorted file.  s_ii comes from the
// cuts in the manifests of a checkpointed twin of the run, stopped in
// step 4 — after its barrier-3 every node has committed phase 3.
func TestOwnSegmentStaysOnDisk(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	c := newCluster(t, v)
	cfg := testConfig(v)
	n := v.NearestValidSize(40000)
	res := runSort(t, c, v, cfg, record.Uniform, n, 109)

	twin := newCluster(t, v)
	cfg.Checkpoint = true
	if _, err := DistributeInput(twin, v, record.Uniform, n, 109, cfg.BlockKeys, "input"); err != nil {
		t.Fatal(err)
	}
	if err := twin.ScheduleCrash(0, -1, StepNames[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(twin, cfg, "input", "output"); !cluster.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}

	p, B := int64(c.P()), int64(cfg.BlockKeys)
	ceil := func(keys int64) int64 { return (keys + B - 1) / B }
	for i, li := range v.Shares(n) {
		m, err := checkpoint.Load(twin.Node(i).FS())
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Cuts) != len(v)+1 || m.Cuts[len(v)] != li {
			t.Fatalf("node %d: phase-%d manifest cuts %v do not span its %d keys", i, m.Phase, m.Cuts, li)
		}
		own := m.Cuts[i+1] - m.Cuts[i]
		qi := res.PartitionSizes[i]
		io := res.StepIO[3][i]
		if lo := (qi - own) / B; io.Writes < lo || io.Writes > lo+p {
			t.Errorf("node %d: step-4 writes %d, want the %d received keys' ~%d blocks", i, io.Writes, qi-own, lo)
		}
		if bound := ceil(li-own) + ceil(qi-own) + 2*p; io.Total() > bound {
			t.Errorf("node %d: step-4 I/O %d exceeds ceil((l_i-s_ii)/B)+ceil((q_i-s_ii)/B)+2p = %d (l_i=%d q_i=%d s_ii=%d)",
				i, io.Total(), bound, li, qi, own)
		}
	}
}

func TestSortedInputFastPath(t *testing.T) {
	// Already-sorted input: replacement selection forms one run, so
	// step 1 collapses to a single distribution pass.
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	resSorted := runSort(t, c, v, testConfig(v), record.Sorted, 16384, 113)
	c2 := newCluster(t, v)
	resReverse := runSort(t, c2, v, testConfig(v), record.Reverse, 16384, 113)
	if resSorted.StepTimes[0] >= resReverse.StepTimes[0] {
		t.Fatalf("sorted input step 1 (%v) should beat reverse input (%v)",
			resSorted.StepTimes[0], resReverse.StepTimes[0])
	}
}

func TestIdealNetworkLowerBound(t *testing.T) {
	v := perf.Homogeneous(4)
	run := func(net cluster.NetModel) float64 {
		c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), Net: net, BlockKeys: 64})
		if err != nil {
			t.Fatal(err)
		}
		res := runSort(t, c, v, testConfig(v), record.Uniform, 20000, 127)
		return res.Time
	}
	ideal := run(cluster.NetIdeal.Model())
	fe := run(cluster.FastEthernet())
	if ideal > fe {
		t.Fatalf("ideal network (%v) slower than Fast Ethernet (%v)", ideal, fe)
	}
}

func TestMultiDiskNodesSpeedUpIOSteps(t *testing.T) {
	v := perf.Homogeneous(2)
	run := func(d int) *Report {
		c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64, DisksPerNode: d})
		if err != nil {
			t.Fatal(err)
		}
		return runSort(t, c, v, testConfig(v), record.Uniform, 32768, 131)
	}
	one, four := run(1), run(4)
	if four.Time >= one.Time {
		t.Fatalf("D=4 (%v) should beat D=1 (%v)", four.Time, one.Time)
	}
	// Results must be identical — only timing changes.
	for i := range one.PartitionSizes {
		if one.PartitionSizes[i] != four.PartitionSizes[i] {
			t.Fatal("disk count changed the partitioning")
		}
	}
}

func TestStepIOReadWriteSplit(t *testing.T) {
	// Per step, reads and writes have characteristic shapes: step 2 reads
	// the samples step 1 kept, so it does no I/O at all; step 3 (locating
	// the cuts) probes one block per pivot — a seek and a read — and
	// writes nothing.
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	cfg := testConfig(v)
	const n = 32768
	res := runSort(t, c, v, cfg, record.Uniform, n, 211)
	for i := 0; i < 2; i++ {
		if p3, want := res.StepIO[2][i], (pdm.IOStats{Reads: 1, Seeks: 1}); p3 != want {
			t.Errorf("node %d step3 I/O %+v, want %+v", i, p3, want)
		}
		if p2 := res.StepIO[1][i]; p2 != (pdm.IOStats{}) {
			t.Errorf("node %d step2 I/O %+v, want none", i, p2)
		}
	}
}

func TestLargeScaleStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	// A million keys across 4 heterogeneous nodes on real temp disks.
	v := perf.Vector{1, 2, 3, 4}
	root := t.TempDir()
	c, err := cluster.New(cluster.Config{
		Slowdowns: v.Slowdowns(),
		BlockKeys: 1024,
		Disks: func(id int) diskio.FS {
			d, derr := diskio.NewDirFS(fmt.Sprintf("%s/n%d", root, id))
			if derr != nil {
				t.Fatal(derr)
			}
			return d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Perf: v, BlockKeys: 1024, MemoryKeys: 1 << 15, Tapes: 15, MessageKeys: 8192}
	n := v.NearestValidSize(1 << 20)
	sum, err := DistributeInput(c, v, record.Gaussian, n, 999, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sort(c, cfg, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
	if exp := res.SublistExpansion; exp > 2.0 {
		t.Fatalf("stress expansion %v breaks the PSRS bound", exp)
	}
}

func TestAllEqualKeysDegenerate(t *testing.T) {
	// Every key identical: pivots are all the same value, so the
	// entire input lands on node 0 (keys <= pivot go low).  Output
	// must still be globally correct; balance has no guarantee (the
	// paper's U+d bound with d=n is vacuous).
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	cfg := testConfig(v)
	keys := make([]record.Key, 8192)
	for i := range keys {
		keys[i] = 42
	}
	for i := 0; i < 2; i++ {
		if err := diskio.WriteFile(c.Node(i).FS(), "input", keys[:4096], cfg.BlockKeys, diskio.Accounting{}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Sort(c, cfg, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, record.ChecksumOf(keys)); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range res.PartitionSizes {
		total += s
	}
	if total != 8192 {
		t.Fatalf("total %d", total)
	}
}

func TestSortPropertyVariedGeometry(t *testing.T) {
	// Random disk geometries: block sizes, tape counts, message sizes.
	f := func(blockRaw, tapesRaw, msgRaw uint8, seed int64) bool {
		block := 16 << (blockRaw % 4) // 16..128
		tapes := 3 + int(tapesRaw%10) // 3..12
		msg := 32 << (msgRaw % 5)     // 32..512
		v := perf.Vector{1, 2}
		c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: block})
		if err != nil {
			return false
		}
		cfg := Config{
			Perf: v, BlockKeys: block, MemoryKeys: tapes * block * 4,
			Tapes: tapes, MessageKeys: msg,
		}
		n := v.NearestValidSize(6000)
		sum, err := DistributeInput(c, v, record.Uniform, n, seed, block, "input")
		if err != nil {
			return false
		}
		if _, err := Sort(c, cfg, "input", "output"); err != nil {
			return false
		}
		return VerifyOutput(c, "output", block, sum) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
