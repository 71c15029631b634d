package extsort

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
)

// checkRunAttribution asserts the tentpole invariant on a finished run:
// every node's compute+disk+network+idle equals its clock.  The step
// windows must tile the run up to the pre-step-1 setup (a Checkpoint
// run's phase-0 manifest commit happens before step 1's window): each
// category's residual is non-negative, and on a plain run (exact=true)
// the windows account for the whole clock.
func checkRunAttribution(t *testing.T, res *Result, exact bool) {
	t.Helper()
	for i, b := range res.NodeAttr {
		if err := vtime.CheckAttribution(res.NodeClocks[i], b); err != nil {
			t.Errorf("node %d: %v", i, err)
		}
		var steps vtime.Breakdown
		for s := range res.StepAttr {
			steps = steps.Add(res.StepAttr[s][i])
		}
		resid := b.Sub(steps)
		for cat, v := range map[string]float64{"compute": resid.Compute, "disk": resid.Disk,
			"network": resid.Network, "idle": resid.Idle} {
			if v < -vtime.AttributionTolerance {
				t.Errorf("node %d: step windows over-count %s by %v", i, cat, -v)
			}
		}
		if exact {
			if err := vtime.CheckAttribution(b.Total(), steps); err != nil {
				t.Errorf("node %d: step windows do not tile the run: %v", i, err)
			}
		}
	}
}

func TestAttributionSumsToClock(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(40000), 3)
	checkRunAttribution(t, res, true)
	// A heterogeneous run must show real work and real waiting: the
	// fast nodes wait at barriers for the loaded ones.
	var idle, busy float64
	for _, b := range res.NodeAttr {
		idle += b.Idle
		busy += b.Compute + b.Disk + b.Network
	}
	if busy == 0 || idle == 0 {
		t.Fatalf("degenerate attribution: busy=%v idle=%v", busy, idle)
	}
}

// TestAttributionRandomConfigs is the property test: across random
// cluster shapes, perf vectors, block/message/memory geometries and
// feature toggles, the four categories always sum to each node's clock.
func TestAttributionRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		p := 2 + rng.Intn(4)
		v := make(perf.Vector, p)
		for i := range v {
			v[i] = 1 + rng.Intn(4)
		}
		block := 16 << rng.Intn(3) // 16, 32, 64
		tapes := 4 + rng.Intn(4)
		memory := tapes*block + (1+rng.Intn(8))*block*4
		msg := block * (1 + rng.Intn(4))
		pipe := rng.Intn(2) == 1 // false forces the unfused fallback
		cfg := Config{
			Perf:        v,
			BlockKeys:   block,
			Tapes:       tapes,
			MemoryKeys:  memory,
			MessageKeys: msg,
			Checkpoint:  rng.Intn(2) == 1,
			Seed:        int64(trial),
		}
		if !pipe {
			cfg = unfuse(cfg)
		}
		n := v.NearestValidSize(int64(4000 + rng.Intn(20000)))
		name := fmt.Sprintf("trial%d_p%d_B%d_pipe%v_ckpt%v", trial, p, block, pipe, cfg.Checkpoint)
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, v)
			res := runSort(t, c, v, cfg, record.Uniform, n, int64(100+trial))
			checkRunAttribution(t, res, !cfg.Checkpoint)
		})
	}
}

// TestTracedRunExportsValidChromeTrace is the acceptance test: a traced
// run exports Chrome trace_event JSON that passes the schema validator,
// with one named track per node and all five Algorithm-1 phases.
func TestTracedRunExportsValidChromeTrace(t *testing.T) {
	v := perf.Vector{1, 2, 2}
	var tl trace.Log
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64, Trace: &tl})
	if err != nil {
		t.Fatal(err)
	}
	runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(20000), 4)

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, &tl); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace invalid: %v", err)
	}
	out := buf.String()
	for i := range v {
		track := fmt.Sprintf(`"name": "node %d"`, i)
		if !strings.Contains(out, track) {
			t.Errorf("missing track metadata %s", track)
		}
	}
	for _, step := range StepNames {
		if !strings.Contains(out, fmt.Sprintf("%q", step)) {
			t.Errorf("missing phase span for %q", step)
		}
	}
	if !strings.Contains(out, `"ph": "s"`) || !strings.Contains(out, `"ph": "f"`) {
		t.Error("no message flow arrows in the trace")
	}

	var jl bytes.Buffer
	if err := trace.WriteJSONL(&jl, &tl); err != nil {
		t.Fatal(err)
	}
	if jl.Len() == 0 || !strings.Contains(jl.String(), `"kind":"phase-begin"`) {
		t.Error("JSONL stream empty or missing phase events")
	}
}

// TestPhaseIOAttribution checks the pdm phase dimension: per-phase block
// I/O recorded by the counters matches the bracketed StepIO snapshots.
func TestPhaseIOAttribution(t *testing.T) {
	v := perf.Homogeneous(3)
	c := newCluster(t, v)
	res := runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(30000), 5)
	for i := 0; i < c.P(); i++ {
		ps := c.Node(i).Counter().PhaseSnapshot()
		for s := 0; s < 5; s++ {
			// StepIO is bracketed barrier to barrier, while the phase
			// cells are only charged between begin(step) and the
			// barrier — the same window, so they must agree exactly on
			// a run without checkpointing.
			if ps[s+1] != res.StepIO[s][i] {
				t.Errorf("node %d step %d: phase cell %+v != StepIO %+v", i, s, ps[s+1], res.StepIO[s][i])
			}
		}
		if ps[0].Total() != 0 {
			t.Errorf("node %d: unattributed I/O %+v on a checkpoint-free run", i, ps[0])
		}
	}
}

func TestMergeMetricsObserved(t *testing.T) {
	v := perf.Homogeneous(2)
	c := newCluster(t, v)
	runSort(t, c, v, testConfig(v), record.Uniform, v.NearestValidSize(20000), 6)
	for i := 0; i < c.P(); i++ {
		snap := c.Node(i).Metrics().Snapshot()
		if snap["merge.keys"] == 0 || snap["merge.comparisons"] == 0 {
			t.Errorf("node %d: merge kernel metrics not observed: %v", i, snap)
		}
		if snap["net.sent.msgs"] == 0 || snap["net.recv.keys"] == 0 {
			t.Errorf("node %d: link metrics not observed: %v", i, snap)
		}
	}
}
