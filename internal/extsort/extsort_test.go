package extsort

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
)

func testConfig(v perf.Vector) Config {
	return Config{
		Perf:        v,
		BlockKeys:   64,
		MemoryKeys:  1024,
		Tapes:       6,
		MessageKeys: 256,
	}
}

func newCluster(t *testing.T, v perf.Vector) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runSort(t *testing.T, c *cluster.Cluster, v perf.Vector, cfg Config,
	dist record.Distribution, n int64, seed int64) *Result {
	t.Helper()
	sum, err := DistributeInput(c, v, dist, n, seed, cfg.BlockKeys, "input")
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
	return res
}

func TestHomogeneousSort(t *testing.T) {
	v := perf.Homogeneous(4)
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, 40000, 1)
	if res.Time <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	var total int64
	for _, s := range res.PartitionSizes {
		total += s
	}
	if total != 40000 {
		t.Fatalf("partitions sum to %d", total)
	}
	if exp := res.SublistExpansion(v); exp > 1.25 {
		t.Fatalf("expansion %v too high for uniform input", exp)
	}
}

func TestHeterogeneousSort(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	c := newCluster(t, v)
	n := v.NearestValidSize(40000)
	res := runSort(t, c, v, testConfig(v), record.Uniform, n, 2)
	if exp := res.SublistExpansion(v); exp > 1.3 {
		t.Fatalf("weighted expansion %v too high", exp)
	}
	// Fast nodes must hold roughly 4x the slow nodes' data.
	slow := float64(res.PartitionSizes[0]+res.PartitionSizes[1]) / 2
	fast := float64(res.PartitionSizes[2]+res.PartitionSizes[3]) / 2
	if ratio := fast / slow; ratio < 3 || ratio > 5 {
		t.Fatalf("fast/slow partition ratio %v far from 4 (%v)", ratio, res.PartitionSizes)
	}
}

func TestAllDistributions(t *testing.T) {
	v := perf.Vector{1, 2}
	for _, d := range record.Distributions() {
		t.Run(d.String(), func(t *testing.T) {
			c := newCluster(t, v)
			runSort(t, c, v, testConfig(v), d, v.NearestValidSize(12000), 5)
		})
	}
}

func TestSingleNodeDegeneratesToSequential(t *testing.T) {
	v := perf.Homogeneous(1)
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, 10000, 3)
	if res.PartitionSizes[0] != 10000 {
		t.Fatalf("single node holds %d", res.PartitionSizes[0])
	}
}

func TestSmallInputs(t *testing.T) {
	v := perf.Homogeneous(2)
	cfg := testConfig(v)
	// Must be large enough per node for step-2 sampling (l_i >= perf*p
	// spacing), but exercise the small end.
	for _, n := range []int64{512, 1000, 2048} {
		c := newCluster(t, v)
		runSort(t, c, v, cfg, record.Uniform, n, 7)
	}
}

func TestStepTimesSumToTotal(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, 20000, 9)
	var sum float64
	for _, st := range res.StepTimes {
		if st < 0 {
			t.Fatalf("negative step time: %v", res.StepTimes)
		}
		sum += st
	}
	diff := res.Time - sum
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-9+1e-6*res.Time {
		t.Fatalf("step times %v do not sum to total %v", res.StepTimes, res.Time)
	}
	if res.StepTimes[0] < res.StepTimes[1] {
		t.Fatalf("step 1 (external sort, %v) should dominate step 2 (sampling, %v)",
			res.StepTimes[0], res.StepTimes[1])
	}
}

func TestIOBudgetsPerStep(t *testing.T) {
	v := perf.Homogeneous(2)
	cfg := testConfig(v)
	c := newCluster(t, v)
	const n = 32768
	res := runSort(t, c, v, cfg, record.Uniform, n, 11)
	params := pdm.Params{N: n, M: int64(cfg.MemoryKeys), B: int64(cfg.BlockKeys), D: 1, P: 2}
	li := int64(n / 2)
	for i := 0; i < 2; i++ {
		// Step 1 within 2x of the paper's polyphase budget.
		if got, budget := res.StepIO[0][i].Total(), params.SequentialSortIOs(li); got > 2*budget {
			t.Errorf("node %d step 1: %d I/Os > 2x budget %d", i, got, budget)
		}
		// Step 2 reads nothing: step 1 kept the p*perf-1 = 1 sample key.
		if got := res.StepIO[1][i]; got != (pdm.IOStats{}) {
			t.Errorf("node %d step 2: I/O %+v for sampling, want none", i, got)
		}
		// Step 3: the one pivot's rank is a fence lookup and one probed
		// block — a seek and a read, where the paper's partitioning pass
		// reads and writes all PartitionIOs(l_i) blocks.
		if got, want := res.StepIO[2][i], (pdm.IOStats{Reads: 1, Seeks: 1}); got != want {
			t.Errorf("node %d step 3: I/O %+v, want exactly %+v (paper: %d)", i, got, want, params.PartitionIOs(li))
		}
		// Step 4: read sender side + write receiver side ~ 2*l/B.
		if got, budget := res.StepIO[3][i].Total(), params.RedistributionIOs(2*li); got > budget+8 {
			t.Errorf("node %d step 4: %d I/Os > budget %d", i, got, budget)
		}
		// Step 5: merge of p sorted files: one pass when p <= fan-in.
		if got, budget := res.StepIO[4][i].Total(), params.PartitionIOs(2*li); got > budget+8 {
			t.Errorf("node %d step 5: %d I/Os > budget %d", i, got, budget)
		}
	}
}

func TestMessageSizeAffectsTimeNotResult(t *testing.T) {
	v := perf.Homogeneous(4)
	small, big := testConfig(v), testConfig(v)
	small.MessageKeys = 64 // tiny packets
	big.MessageKeys = 4096

	cSmall := newCluster(t, v)
	resSmall := runSort(t, cSmall, v, small, record.Uniform, 40000, 13)
	cBig := newCluster(t, v)
	resBig := runSort(t, cBig, v, big, record.Uniform, 40000, 13)

	for i := range resSmall.PartitionSizes {
		if resSmall.PartitionSizes[i] != resBig.PartitionSizes[i] {
			t.Fatal("message size changed the partitioning")
		}
	}
	if resSmall.StepTimes[3] <= resBig.StepTimes[3] {
		t.Fatalf("small messages should slow redistribution: %v vs %v",
			resSmall.StepTimes[3], resBig.StepTimes[3])
	}
}

func TestHeterogeneousConfigBeatsHomogeneousOnLoadedCluster(t *testing.T) {
	// The paper's central claim (Table 3): on a cluster with two 4x
	// loaded nodes, perf={1,1,4,4} halves the execution time compared
	// to perf={1,1,1,1}.
	hetero := perf.Vector{1, 1, 4, 4}
	slowdowns := hetero.Slowdowns()
	const n = 41000 // close to hetero.NearestValidSize

	runWith := func(v perf.Vector) float64 {
		c, err := cluster.New(cluster.Config{Slowdowns: slowdowns, BlockKeys: 64})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(v)
		size := v.NearestValidSize(n)
		sum, err := DistributeInput(c, v, record.Uniform, size, 17, cfg.BlockKeys, "input")
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
		return res.Time
	}
	tHomo := runWith(perf.Homogeneous(4))
	tHet := runWith(hetero)
	if tHet >= tHomo {
		t.Fatalf("heterogeneous config %.3fs should beat homogeneous %.3fs", tHet, tHomo)
	}
	if ratio := tHomo / tHet; ratio < 1.4 {
		t.Fatalf("improvement ratio %.2f below the paper's ~2x shape", ratio)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	v := perf.Vector{1, 3}
	run := func() *Result {
		c := newCluster(t, v)
		return runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(16000), 19)
	}
	a, b := run(), run()
	if a.Time != b.Time {
		t.Fatalf("virtual time not deterministic: %v vs %v", a.Time, b.Time)
	}
	for i := range a.PartitionSizes {
		if a.PartitionSizes[i] != b.PartitionSizes[i] {
			t.Fatal("partitions not deterministic")
		}
	}
}

func TestMyrinetBarelyChangesTime(t *testing.T) {
	// Paper: "executions with Myrinet do not improve performance"
	// because the algorithm moves each key at most once.
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(40000)
	run := func(net cluster.NetModel) float64 {
		c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), Net: net, BlockKeys: 64})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(v)
		sum, err := DistributeInput(c, v, record.Uniform, n, 23, cfg.BlockKeys, "input")
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
		return res.Time
	}
	fe := run(cluster.FastEthernet())
	my := run(cluster.Myrinet())
	if my > fe {
		t.Fatalf("Myrinet (%v) slower than Fast Ethernet (%v)?", my, fe)
	}
	if (fe-my)/fe > 0.25 {
		t.Fatalf("network change moved time by %v%% — algorithm should be communication-light",
			100*(fe-my)/fe)
	}
}

func TestConfigValidation(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	bad := []Config{
		{Perf: perf.Vector{1}, BlockKeys: 64, MemoryKeys: 1024, Tapes: 4, MessageKeys: 128},
		{Perf: perf.Vector{1, 0}, BlockKeys: 64, MemoryKeys: 1024, Tapes: 4, MessageKeys: 128},
		{Perf: v, BlockKeys: 64, MemoryKeys: 1024, Tapes: 2, MessageKeys: 128},
		{Perf: v, BlockKeys: 64, MemoryKeys: 64, Tapes: 4, MessageKeys: 128},
	}
	for i, cfg := range bad {
		if _, err := Sort(c, cfg, "in", "out"); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMissingInputSurfacesError(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	_, err := Sort(c, testConfig(v), "nope", "out")
	if err == nil || !strings.Contains(err.Error(), "step 1") {
		t.Fatalf("want step-1 error, got %v", err)
	}
}

func TestDiskFaultSurfaced(t *testing.T) {
	v := perf.Homogeneous(2)
	budget := int64(0)
	c, err := cluster.New(cluster.Config{
		Slowdowns: v.Slowdowns(),
		BlockKeys: 64,
		Disks: func(id int) diskio.FS {
			inner := diskio.NewMemFS()
			if id == 1 {
				ffs := diskio.NewFaultFS(inner, -1)
				budget = 400
				ffs.FailAfter = budget
				return ffs
			}
			return inner
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(v)
	if _, err := DistributeInput(c, v, record.Uniform, 8192, 3, cfg.BlockKeys, "input"); err != nil {
		// Input distribution may itself hit the fault budget; that is
		// fine for this test as long as an error surfaces somewhere.
		return
	}
	if _, err := Sort(c, cfg, "input", "output"); err == nil {
		t.Fatal("injected disk fault did not surface")
	}
}

// TestTransientReadFaultNeverLosesKeys sweeps a one-shot disk fault over
// every file operation of a small sort: whichever operation it strikes,
// Sort must either report an error or deliver the complete sorted
// output.  A fault on the first block of a chunk makes ReadKeys return
// (0, err); the chunk loops used to test the count before the error,
// took that for end of input, and the sort "succeeded" with part of a
// segment missing.
func TestTransientReadFaultNeverLosesKeys(t *testing.T) {
	v := perf.Homogeneous(2)
	var silent []int64
	for k := int64(0); ; k++ {
		var ffs *diskio.FaultFS
		c, err := cluster.New(cluster.Config{
			Slowdowns: v.Slowdowns(),
			BlockKeys: 64,
			Disks: func(id int) diskio.FS {
				if id != 1 {
					return diskio.NewMemFS()
				}
				ffs = diskio.NewFaultFS(diskio.NewMemFS(), -1) // disarmed while the input lands
				return ffs
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(v)
		sum, err := DistributeInput(c, v, record.Uniform, 8192, 3, cfg.BlockKeys, "input")
		if err != nil {
			t.Fatal(err)
		}
		ffs.FailAfter, ffs.FailCount = k, 1
		_, err = Sort(c, cfg, "input", "output")
		if ffs.Injected() == 0 {
			break // k is past the sort's last operation
		}
		if err == nil && VerifyOutput(c, "output", cfg.BlockKeys, sum) != nil {
			silent = append(silent, k)
		}
	}
	if len(silent) > 0 {
		t.Errorf("Sort returned nil with keys missing when the fault hit operation %v", silent)
	}
}

// TestIntermediateFilesCleaned: a run leaves only its input and output
// behind — also when the fused final round merged the node's own bucket
// in-stream, which no step-5 merge then consumes and removes (a fused
// run used to leak it).
func TestIntermediateFilesCleaned(t *testing.T) {
	v := perf.Homogeneous(4)
	for _, fused := range []bool{false, true} {
		c := newCluster(t, v)
		cfg := unfuse(testConfig(v))
		if fused {
			cfg = testConfig(v)
			cfg.Topology, cfg.Radix = TopologyTree, 2 // fan-in 1 fits M
		}
		runSort(t, c, v, cfg, record.Uniform, 8192, 29)
		for i := range v {
			names, err := c.Node(i).FS().Names()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				if name != "input" && name != "output" {
					t.Errorf("fused=%v: node %d leftover %q", fused, i, name)
				}
			}
		}
	}
}

// createLog is a node disk that records the names passed to Create.
type createLog struct {
	diskio.FS
	created []string
}

func (l *createLog) Create(name string) (diskio.File, error) {
	l.created = append(l.created, name)
	return l.FS.Create(name)
}

// TestBucketsAreNotFiles: step 3 cuts the sorted file by offset, so no
// strategy, topology or execution mode creates a file per bucket — the
// round-0 buckets are sections of hetsort.sorted — and what a node does
// create (tapes, manifests, round intermediates for its sub-block, one
// receive file per in-neighbor, merge scratch, the output) stays linear
// in p, where p segment files per node made it p² per run.
func TestBucketsAreNotFiles(t *testing.T) {
	const p = 7 // ragged for radix 3 and for the 3x3 grid
	v := make(perf.Vector, p)
	for i := range v {
		v[i] = []int{1, 1, 4, 4}[i%4]
	}
	n := v.NearestValidSize(2500 * p)
	for _, strat := range []Strategy{RegularSampling, RandomPivots, QuantileSketch, Histogram} {
		for _, topo := range []Topology{TopologyFlat, TopologyTree, TopologyGrid} {
			for mode := 0; mode < 4; mode++ {
				cfg := testConfig(v)
				if mode&1 != 0 {
					cfg = unfuse(cfg)
				}
				cfg.Strategy, cfg.Seed, cfg.Topology, cfg.Radix = strat, 5, topo, 3
				cfg.Checkpoint = mode&2 != 0
				name := fmt.Sprintf("%v-%v-unfused=%v-checkpoint=%v", strat, topo, mode&1 != 0, cfg.Checkpoint)
				logs := make([]*createLog, p)
				c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64,
					Disks: func(id int) diskio.FS {
						logs[id] = &createLog{FS: diskio.NewMemFS()}
						return logs[id]
					}})
				if err != nil {
					t.Fatal(err)
				}
				runSort(t, c, v, cfg, record.Uniform, n, 41)
				for i, l := range logs {
					for _, created := range l.created {
						if strings.HasPrefix(created, "hetsort.seg") {
							t.Fatalf("%s: node %d created bucket file %q", name, i, created)
						}
					}
					if bound := 2*p + cfg.Tapes + 8; len(l.created) > bound {
						t.Errorf("%s: node %d created %d files, want at most 2p+T+8 = %d: %v",
							name, i, len(l.created), bound, l.created)
					}
				}
			}
		}
	}
}

func TestRunFormationVariants(t *testing.T) {
	v := perf.Homogeneous(2)
	for _, rf := range []polyphase.RunFormation{polyphase.ReplacementSelection, polyphase.LoadSort} {
		c := newCluster(t, v)
		cfg := testConfig(v)
		cfg.RunFormation = rf
		runSort(t, c, v, cfg, record.Uniform, 16384, 37)
	}
}

func TestOnRealDisk(t *testing.T) {
	v := perf.Vector{1, 2}
	root := t.TempDir()
	c, err := cluster.New(cluster.Config{
		Slowdowns: v.Slowdowns(),
		BlockKeys: 64,
		Disks: func(id int) diskio.FS {
			d, derr := diskio.NewDirFS(root + "/node" + string(rune('0'+id)))
			if derr != nil {
				t.Fatal(derr)
			}
			return d
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(20000), 41)
}

func TestSortProperty(t *testing.T) {
	v := perf.Vector{1, 2, 1}
	cfg := testConfig(v)
	f := func(seed int64, distRaw uint8) bool {
		d := record.Distribution(int(distRaw) % record.NumDistributions)
		n := v.NearestValidSize(9000)
		c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64})
		if err != nil {
			return false
		}
		sum, err := DistributeInput(c, v, d, n, seed, cfg.BlockKeys, "input")
		if err != nil {
			return false
		}
		if _, err := Sort(c, cfg, "input", "output"); err != nil {
			return false
		}
		return VerifyOutput(c, "output", cfg.BlockKeys, sum) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestResultHelpers(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	res := &Result{PartitionSizes: []int64{100, 120, 400, 420}}
	if got := res.MeanPartition(v, 4); got != 410 {
		t.Fatalf("MeanPartition=%v", got)
	}
	if got := res.MaxPartition(v, 4); got != 420 {
		t.Fatalf("MaxPartition=%v", got)
	}
	if got := res.MaxPartition(v, 9); got != 0 {
		t.Fatalf("missing class MaxPartition=%v", got)
	}
	if res.SublistExpansion(perf.Vector{1}) != 0 {
		t.Fatal("mismatched vector should give 0")
	}
}
