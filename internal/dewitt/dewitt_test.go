package dewitt

import (
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

func testConfig(v perf.Vector) Config {
	return Config{Config: extsort.Config{
		Perf:        v,
		BlockKeys:   64,
		MemoryKeys:  1024,
		Tapes:       6,
		MessageKeys: 256,
		Seed:        5,
	}}
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
	dist record.Distribution, n int64, seed int64) *extsort.Report {
	t.Helper()
	sum, err := extsort.DistributeInput(c, v, dist, n, seed, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sort(c, cfg, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	if err := extsort.VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHomogeneousSort(t *testing.T) {
	v := perf.Homogeneous(4)
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, 40000, 1)
	if res.Time <= 0 {
		t.Fatal("no time")
	}
	var total int64
	for _, s := range res.PartitionSizes {
		total += s
	}
	if total != 40000 {
		t.Fatalf("partitions sum %d", total)
	}
	if len(res.Pivots) != 3 {
		t.Fatalf("splitters %v", res.Pivots)
	}
}

func TestHeterogeneousSort(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(40000), 2)
	slow := float64(res.PartitionSizes[0]+res.PartitionSizes[1]) / 2
	fast := float64(res.PartitionSizes[2]+res.PartitionSizes[3]) / 2
	if ratio := fast / slow; ratio < 2.5 || ratio > 6 {
		t.Fatalf("fast/slow ratio %v far from 4: %v", ratio, res.PartitionSizes)
	}
}

func TestAllDistributions(t *testing.T) {
	v := perf.Vector{1, 2}
	for _, d := range record.Distributions() {
		t.Run(d.String(), func(t *testing.T) {
			c := newCluster(t, v)
			runSort(t, c, v, testConfig(v), d, v.NearestValidSize(12000), 3)
		})
	}
}

func TestSingleNode(t *testing.T) {
	v := perf.Homogeneous(1)
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, 8000, 4)
	if res.PartitionSizes[0] != 8000 {
		t.Fatalf("single node holds %d", res.PartitionSizes[0])
	}
}

func TestConfigErrors(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	if _, err := Sort(c, Config{Config: extsort.Config{Perf: perf.Vector{1}}}, "in", "out"); err == nil {
		t.Fatal("perf length mismatch accepted")
	}
	if _, err := Sort(c, Config{Config: extsort.Config{Perf: perf.Vector{0, 1}}}, "in", "out"); err == nil {
		t.Fatal("invalid perf accepted")
	}
	if _, err := Sort(c, testConfig(v), "missing", "out"); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestFewerIOsThanAlgorithm1(t *testing.T) {
	// The structural advantage of the baseline: no up-front external
	// sort, so it moves strictly fewer blocks than Algorithm 1.
	v := perf.Homogeneous(2)
	const n = 32768

	cD := newCluster(t, v)
	resD := runSort(t, cD, v, testConfig(v), record.Uniform, n, 7)
	var dIO int64
	for _, io := range resD.NodeIO {
		dIO += io.Total()
	}

	cA := newCluster(t, v)
	sum, err := extsort.DistributeInput(cA, v, record.Uniform, n, 7, 64, "input")
	if err != nil {
		t.Fatal(err)
	}
	resA, err := extsort.Sort(cA, extsort.Config{
		Perf: v, BlockKeys: 64, MemoryKeys: 1024, Tapes: 6, MessageKeys: 256,
	}, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	if err := extsort.VerifyOutput(cA, "output", 64, sum); err != nil {
		t.Fatal(err)
	}
	var aIO int64
	for _, io := range resA.NodeIO {
		aIO += io.Total()
	}
	if dIO >= aIO {
		t.Fatalf("DeWitt I/O %d should undercut Algorithm 1's %d", dIO, aIO)
	}
}

func TestWorseBalanceThanRegularSampling(t *testing.T) {
	// The price of probabilistic splitting: across seeds, the average
	// expansion of the baseline should not beat Algorithm 1's
	// regular sampling (the paper's section-3 argument for PSRS).
	v := perf.Homogeneous(4)
	const n = 40000
	var dSum, aSum float64
	const trials = 3
	for s := int64(0); s < trials; s++ {
		cD := newCluster(t, v)
		cfg := testConfig(v)
		cfg.SampleFactor = 4 // modest sample, as in the original paper
		cfg.Seed = s * 131
		resD := runSort(t, cD, v, cfg, record.Uniform, n, 100+s)
		dSum += resD.SublistExpansion

		cA := newCluster(t, v)
		sum, err := extsort.DistributeInput(cA, v, record.Uniform, n, 100+s, 64, "input")
		if err != nil {
			t.Fatal(err)
		}
		resA, err := extsort.Sort(cA, extsort.Config{
			Perf: v, BlockKeys: 64, MemoryKeys: 1024, Tapes: 6, MessageKeys: 256,
		}, "input", "output")
		if err != nil {
			t.Fatal(err)
		}
		if err := extsort.VerifyOutput(cA, "output", 64, sum); err != nil {
			t.Fatal(err)
		}
		aSum += resA.SublistExpansion
	}
	if dSum/trials < aSum/trials-0.02 {
		t.Fatalf("probabilistic splitting (%v) implausibly beat regular sampling (%v)",
			dSum/trials, aSum/trials)
	}
}

func TestDeterministic(t *testing.T) {
	v := perf.Vector{1, 3}
	run := func() *extsort.Report {
		c := newCluster(t, v)
		return runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(16000), 11)
	}
	a, b := run(), run()
	if a.Time != b.Time {
		t.Fatalf("times differ: %v vs %v", a.Time, b.Time)
	}
}
