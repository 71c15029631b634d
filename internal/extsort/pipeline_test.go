package extsort

import (
	"fmt"
	"math/rand"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/trace"
)

func diskioReadAll(c *cluster.Cluster, node, block int) ([]record.Key, error) {
	return diskio.ReadFileAll(c.Node(node).FS(), "output", block, diskio.Accounting{})
}

// runOnce sorts a fresh cluster with cfg and returns the per-node
// outputs and the total accounted block I/O.
func runOnce(t *testing.T, v perf.Vector, cfg Config, dist record.Distribution,
	n int64, seed int64) ([][]record.Key, int64) {
	t.Helper()
	c := newCluster(t, v)
	sum, err := DistributeInput(c, v, dist, n, seed, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	if _, err := Sort(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
	outs := make([][]record.Key, c.P())
	for i := 0; i < c.P(); i++ {
		part, err := diskioReadAll(c, i, cfg.BlockKeys)
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = part
	}
	return outs, totalIO(c)
}

// unfuse forces the barrier fallback: messages as large as M leave no
// final round's buffers room in memory (fusedFits).  The message size
// moves no block, so I/O counts compare across the two paths.
func unfuse(cfg Config) Config {
	cfg.MessageKeys = cfg.MemoryKeys
	return cfg
}

// TestPipelineMatchesBarrierProperty is the acceptance property of the
// fused steps 4+5: for random perf vectors, pivot strategies, message
// sizes and distributions, the fused run's per-node output files are
// byte-identical to the barrier fallback's, and — whenever the fan-in
// fits in memory so fusion actually engages — the fused run performs
// strictly fewer total block I/Os.
func TestPipelineMatchesBarrierProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vectors := []perf.Vector{{1, 1}, {1, 1, 4, 4}, {1, 2, 4}, {1, 1, 1, 1}, {1, 3}}
	strategies := []Strategy{RegularSampling, RandomPivots, QuantileSketch, Histogram}
	messageSizes := []int{64, 256, 1024, 8192}
	dists := []record.Distribution{record.Uniform, record.Zipf, record.Gaussian}

	for trial := 0; trial < 10; trial++ {
		v := vectors[trial%len(vectors)]
		strat := strategies[trial%len(strategies)]
		msg := messageSizes[rng.Intn(len(messageSizes))]
		dist := dists[rng.Intn(len(dists))]
		n := v.NearestValidSize(int64(1) << (12 + rng.Intn(3)))
		seed := rng.Int63()

		cfg := testConfig(v)
		cfg.MemoryKeys = 8192 // enough for most fan-ins; 8192-key messages still overflow
		cfg.Strategy = strat
		cfg.MessageKeys = msg

		name := fmt.Sprintf("p%d_strat%d_msg%d_%v", len(v), strat, msg, dist)
		t.Run(name, func(t *testing.T) {
			barrier, barrierIO := runOnce(t, v, unfuse(cfg), dist, n, seed)
			piped, pipedIO := runOnce(t, v, cfg, dist, n, seed)

			for i := range barrier {
				if len(barrier[i]) != len(piped[i]) {
					t.Fatalf("node %d: %d keys fused vs %d barrier", i, len(piped[i]), len(barrier[i]))
				}
				for j := range barrier[i] {
					if barrier[i][j] != piped[i][j] {
						t.Fatalf("node %d key %d: fused %d != barrier %d", i, j, piped[i][j], barrier[i][j])
					}
				}
			}
			if cfg.fusedFits(len(v) - 1) {
				if pipedIO >= barrierIO {
					t.Errorf("fused I/O %d not strictly below barrier %d", pipedIO, barrierIO)
				}
			} else if pipedIO != barrierIO {
				t.Errorf("fallback path I/O %d differs from barrier %d", pipedIO, barrierIO)
			}
		})
	}
}

// TestPipelineFallbackTraced: an oversized fan-in must fall back to the
// barrier path and say so in the trace.
func TestPipelineFallbackTraced(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	tl := new(trace.Log)
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64, Trace: tl})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(v) // MemoryKeys 1024 < 3*(256+64)+2*64: cannot fuse
	sum, err := DistributeInput(c, v, record.Uniform, v.NearestValidSize(1<<12), 3, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
	var fallbacks, fused int
	for _, e := range tl.Events() {
		if e.Kind == trace.Pipeline {
			switch e.Label {
			case "fallback":
				fallbacks++
			case "fused", "spill":
				fused++
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no fallback events traced for an oversized fan-in")
	}
	if fused != 0 {
		t.Errorf("%d nodes fused despite the memory bound", fused)
	}
}

// TestPipelineCheckpointCrashResume is the crash property of the
// spill-while-merging path: with Checkpoint on, kill a node at every
// phase boundary (before and after each commit) and the resumed run must
// produce output byte-identical to an uninterrupted checkpointed
// *barrier* run — the strongest form of the byte-identity claim.  The
// points alternate between a configuration that fuses (the streams spill
// to receive files while they merge) and one forced onto the fallback,
// so recovery is exercised over both paths' phase-4 artifacts.
func TestPipelineCheckpointCrashResume(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 14)
	base := testConfig(v)
	base.MemoryKeys = 8192 // let fusion engage (spill mode under Checkpoint)
	base.Checkpoint = true
	const seed = 42

	// Reference: an uninterrupted checkpointed *barrier* run.
	want, _ := runOnce(t, v, unfuse(base), record.Uniform, n, seed)

	var points []string
	for _, s := range StepNames {
		points = append(points, s)
		points = append(points, "committed:"+s)
	}
	points = append(points, "committed:start")

	for pi, point := range points {
		point := point
		crashNode := pi % len(v)
		t.Run(point, func(t *testing.T) {
			c := newCluster(t, v)
			sum, err := DistributeInput(c, v, record.Uniform, n, seed, base.BlockKeys, "input")
			if err != nil {
				t.Fatal(err)
			}
			// Even-numbered points fuse, odd ones take the fallback.
			cfg := base
			if pi%2 == 1 {
				cfg = unfuse(base)
			}
			cfg.InputSum = sum
			if err := c.ScheduleCrash(crashNode, -1, point); err != nil {
				t.Fatal(err)
			}
			if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
				t.Fatalf("crash at %q did not surface: %v", point, err)
			}
			res, got, err := Resume(c, cfg, "input", "output")
			if err != nil {
				t.Fatalf("resume after crash at %q: %v", point, err)
			} else if !got.Equal(sum) {
				t.Error("manifest input checksum differs from the distributed input's")
			}
			// Fused, step 5 only commits — also on a node resumed past
			// phase 4, which keeps the output it merged then.
			for i, io := range res.StepIO[4] {
				if pi%2 == 0 && io.Reads != 0 {
					t.Errorf("node %d merged again in step 5: %v", i, io)
				}
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
