package extsort

import (
	"fmt"
	"math/rand"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// runOverlapOnce sorts a fresh cluster of disks-disk nodes with cfg and
// returns the per-node outputs, each node's per-phase PDM I/O
// attribution, and the result.
func runOverlapOnce(t *testing.T, v perf.Vector, disks int, cfg Config, dist record.Distribution,
	n int64, seed int64) ([][]record.Key, [][pdm.PhaseCount]pdm.IOStats, *Result) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64, DisksPerNode: disks})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := DistributeInput(c, v, dist, n, seed, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	res, err := Sort(c, cfg, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
	outs := make([][]record.Key, c.P())
	phases := make([][pdm.PhaseCount]pdm.IOStats, c.P())
	for i := 0; i < c.P(); i++ {
		if outs[i], err = diskioReadAll(c, i, cfg.BlockKeys); err != nil {
			t.Fatal(err)
		}
		phases[i] = c.Node(i).Counter().PhaseSnapshot()
	}
	return outs, phases, res
}

// TestOverlapMatchesSynchronousProperty is the acceptance property of
// overlapped I/O: for random perf vectors, pivot strategies, sizes and
// distributions, the overlapped run's per-node output files are
// byte-identical to the synchronous run's and every node's PDM I/O
// counts — reads, writes and seeks, per phase — are exactly equal.
// Overlap changes when block transfers cost virtual time, never how
// many happen.  The overlapped run must also be no slower and its time
// attribution must still sum to each node's clock.
func TestOverlapMatchesSynchronousProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vectors := []perf.Vector{{1, 1}, {1, 1, 4, 4}, {1, 2, 4}, {1, 1, 1, 1}, {1, 3}}
	strategies := []Strategy{RegularSampling, RandomPivots, QuantileSketch, Histogram}
	dists := []record.Distribution{record.Uniform, record.Zipf, record.Gaussian}

	for trial := 0; trial < 10; trial++ {
		v := vectors[trial%len(vectors)]
		strat := strategies[trial%len(strategies)]
		dist := dists[rng.Intn(len(dists))]
		n := v.NearestValidSize(int64(1) << (12 + rng.Intn(3)))
		seed := rng.Int63()

		cfg := testConfig(v)
		cfg.Strategy = strat
		if trial%3 == 0 {
			cfg.MemoryKeys = 8192 // overlap must compose with the fused merge at every p
		}
		// Every fourth trial runs on D-disk nodes, D in 1..4: the
		// overlap depth is max(2, D).
		disks := 1
		if trial%4 == 0 {
			disks = 1 + rng.Intn(4)
		}

		name := fmt.Sprintf("p%d_strat%d_%v_n%d", len(v), strat, dist, n)
		t.Run(name, func(t *testing.T) {
			sync, syncPhases, syncRes := runOverlapOnce(t, v, disks, cfg, dist, n, seed)
			ocfg := cfg
			ocfg.Overlap = true
			over, overPhases, overRes := runOverlapOnce(t, v, disks, ocfg, dist, n, seed)

			for i := range sync {
				if len(sync[i]) != len(over[i]) {
					t.Fatalf("node %d: %d keys overlapped vs %d synchronous", i, len(over[i]), len(sync[i]))
				}
				for j := range sync[i] {
					if sync[i][j] != over[i][j] {
						t.Fatalf("node %d key %d: overlapped %d != synchronous %d", i, j, over[i][j], sync[i][j])
					}
				}
				for ph := range syncPhases[i] {
					if syncPhases[i][ph] != overPhases[i][ph] {
						t.Errorf("node %d phase %d: overlapped I/O %+v != synchronous %+v",
							i, ph, overPhases[i][ph], syncPhases[i][ph])
					}
				}
			}
			if overRes.Time > syncRes.Time {
				t.Errorf("overlapped run slower: %.6f vs %.6f virtual s", overRes.Time, syncRes.Time)
			}
			for i, b := range overRes.NodeAttr {
				if err := vtime.CheckAttribution(overRes.NodeClocks[i], b); err != nil {
					t.Errorf("node %d: %v", i, err)
				}
			}
		})
	}
}

// TestOverlapCrashResumeProperty: Overlap is a pure execution strategy,
// so a checkpointed run crashed at any phase boundary may be resumed
// with overlap toggled the other way and must still produce output
// byte-identical to an uninterrupted synchronous run.
func TestOverlapCrashResumeProperty(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 13)
	base := testConfig(v)
	base.Checkpoint = true
	const seed = 77

	want, _, _ := runOverlapOnce(t, v, 1, base, record.Uniform, n, seed)

	var points []string
	for _, s := range StepNames {
		points = append(points, s, "committed:"+s)
	}
	for pi, point := range points {
		point := point
		crashNode := pi % len(v)
		t.Run(point, func(t *testing.T) {
			c := newCluster(t, v)
			sum, err := DistributeInput(c, v, record.Uniform, n, seed, base.BlockKeys, "input")
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.Overlap = pi%2 == 0 // crash an overlapped run on even points...
			cfg.InputSum = sum
			if err := c.ScheduleCrash(crashNode, -1, point); err != nil {
				t.Fatal(err)
			}
			if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
				t.Fatalf("crash at %q did not surface: %v", point, err)
			}
			rcfg := cfg
			rcfg.Overlap = !cfg.Overlap // ...and resume it synchronous (and vice versa)
			if _, got, err := Resume(c, rcfg, "input", "output"); err != nil {
				t.Fatalf("resume after crash at %q: %v", point, err)
			} else if !got.Equal(sum) {
				t.Error("manifest input checksum differs from the distributed input's")
			}
			if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
				t.Fatalf("resumed output: %v", err)
			}
			for i := 0; i < c.P(); i++ {
				part, err := diskioReadAll(c, i, cfg.BlockKeys)
				if err != nil {
					t.Fatal(err)
				}
				if len(part) != len(want[i]) {
					t.Fatalf("node %d: resumed %d keys, reference %d", i, len(part), len(want[i]))
				}
				for j := range part {
					if part[j] != want[i][j] {
						t.Fatalf("node %d key %d: resumed %d != reference %d", i, j, part[j], want[i][j])
					}
				}
			}
		})
	}
}
