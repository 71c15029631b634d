// External test package: the tests drive whole sorts through the
// hetsort facade (which itself imports progress), so an internal test
// package would be an import cycle.
package progress_test

import (
	"math"
	"path/filepath"
	"strings"
	"testing"

	"hetsort"
	"hetsort/internal/pdm"
	"hetsort/internal/progress"
	"hetsort/internal/record"
)

func genKeys(n int, seed int64, parts int) []hetsort.Key {
	d, err := record.ParseDistribution("uniform")
	if err != nil {
		panic(err)
	}
	return d.Generate(n, seed, parts)
}

// baseConfig is a small 4-node machine every test starts from.
func baseConfig() hetsort.Config {
	return hetsort.Config{
		Perf:        []int{1, 1, 1, 1},
		BlockKeys:   64,
		MemoryKeys:  1024,
		Tapes:       4,
		MessageKeys: 512,
	}
}

// TestStragglerDetectsSlowNode is the acceptance scenario: a declared
// 1:1:1:1 cluster where node 0's machine is actually 3x slower must
// rank node 0 first and classify it as a slow node, deterministically.
func TestStragglerDetectsSlowNode(t *testing.T) {
	cfg := baseConfig()
	cfg.Loads = []float64{3, 1, 1, 1}
	keys := genKeys(16384, 7, len(cfg.Perf))
	_, rep, err := hetsort.Sort(keys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := rep.Stragglers()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Flagged == 0 {
		t.Fatalf("stretched node not flagged:\n%s", sr)
	}
	top := sr.Ranked[0]
	if top.Node != 0 {
		t.Fatalf("node %d ranked first, want the stretched node 0:\n%s", top.Node, sr)
	}
	if top.Kind != progress.KindSlowNode {
		t.Fatalf("node 0 classified %q, want %q:\n%s", top.Kind, progress.KindSlowNode, sr)
	}
	for _, d := range sr.Ranked[1:] {
		if d.Kind == progress.KindSlowNode {
			t.Errorf("node %d also classified slow-node (ratio %.2f); only node 0 is stretched:\n%s",
				d.Node, d.Ratio, sr)
		}
	}
}

// TestAnalyzeOverloadedPartition checks the other diagnosis: a node
// whose machine runs at declared speed but whose partition blew past
// its perf share reads as an overloaded partition, not a slow node.
func TestAnalyzeOverloadedPartition(t *testing.T) {
	mk := func(blocks int64) pdm.IOStats { return pdm.IOStats{Reads: blocks, Writes: blocks} }
	st := progress.RunStats{
		Perf: []int{1, 1, 1, 1},
		// Busy time proportional to work done: observed speeds all equal.
		Busy:           []float64{2, 1, 1, 1},
		IO:             []pdm.IOStats{mk(200), mk(100), mk(100), mk(100)},
		PartitionSizes: []int64{2000, 666, 667, 667},
	}
	sr, err := progress.Analyze(st)
	if err != nil {
		t.Fatal(err)
	}
	top := sr.Ranked[0]
	if top.Node != 0 || top.Kind != progress.KindOverloadedPartition {
		t.Fatalf("got node %d kind %q first, want node 0 %q:\n%s",
			top.Node, top.Kind, progress.KindOverloadedPartition, sr)
	}
}

// reconcile asserts a final snapshot against its run's report: done,
// internally consistent, byte-exact against the PDM counters, and
// carrying each node's final clock bit for bit.
func reconcile(t *testing.T, s *progress.Snapshot, rep *hetsort.Report, blockKeys int) {
	t.Helper()
	if s == nil {
		t.Fatal("nil final snapshot")
	}
	if !s.Done {
		t.Fatal("final snapshot not marked done")
	}
	if len(s.Nodes) != len(rep.NodeIO) {
		t.Fatalf("snapshot has %d nodes, report %d", len(s.Nodes), len(rep.NodeIO))
	}
	for i := range s.Nodes {
		np := &s.Nodes[i]
		if np.IO != rep.NodeIO[i] {
			t.Errorf("node %d: snapshot IO %+v != report PDM counters %+v", i, np.IO, rep.NodeIO[i])
		}
		var sum pdm.IOStats
		for _, cell := range np.StepIO {
			sum = sum.Add(cell)
		}
		if sum != np.IO {
			t.Errorf("node %d: IO %+v != sum of step cells %+v", i, np.IO, sum)
		}
		if want := np.IO.Total() * int64(blockKeys); np.KeysMoved != want {
			t.Errorf("node %d: KeysMoved %d != Total()*B = %d", i, np.KeysMoved, want)
		}
		if math.Float64bits(np.Clock) != math.Float64bits(rep.NodeClocks[i]) {
			t.Errorf("node %d: snapshot clock %v != report clock %v", i, np.Clock, rep.NodeClocks[i])
		}
	}
}

// TestSnapshotReconcilesAcrossTopologies runs the tree and grid
// redistribution variants and demands the same exact reconciliation
// the flat path gives.
func TestSnapshotReconcilesAcrossTopologies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		topo  hetsort.Topology
		radix int
	}{
		{"flat", hetsort.TopologyFlat, 0},
		{"tree", hetsort.TopologyTree, 2},
		{"grid", hetsort.TopologyGrid, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.Topology, cfg.Radix = tc.topo, tc.radix
			tr := hetsort.NewProgressTracker()
			cfg.Progress = tr
			if tr.Snapshot() != nil {
				t.Fatal("unbound tracker returned a snapshot")
			}
			keys := genKeys(8192, 11, len(cfg.Perf))
			_, rep, err := hetsort.Sort(keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := tr.Snapshot()
			reconcile(t, s, rep, cfg.BlockKeys)
			if s.Run != 1 {
				t.Errorf("run generation %d, want 1", s.Run)
			}
		})
	}
}

// TestCrashResumeProgress threads ONE tracker through a crash and the
// resume, as the check harness and hetsortd recovery do: sequence
// numbers stay monotonic across the boundary, the run generation
// bumps, and the final totals equal the resumed report's counters
// exactly — committed phases are never double-counted.
func TestCrashResumeProgress(t *testing.T) {
	dir := t.TempDir()
	cfg := baseConfig()
	cfg.WorkDir = filepath.Join(dir, "disks")
	cfg.Checkpoint = hetsort.CheckpointConfig{Enabled: true, CrashPhase: 4, CrashNode: 2}
	tr := hetsort.NewProgressTracker()
	cfg.Progress = tr

	keys := genKeys(8192, 13, len(cfg.Perf))
	_, _, err := hetsort.Sort(keys, cfg)
	if err == nil {
		t.Fatal("injected crash did not fire")
	}
	if !hetsort.IsCrash(err) {
		t.Fatalf("expected a crash, got: %v", err)
	}
	crashed := tr.Snapshot()
	if crashed == nil || crashed.Run != 1 {
		t.Fatalf("post-crash snapshot %+v, want run generation 1", crashed)
	}
	if crashed.Done {
		t.Fatal("crashed run marked done")
	}

	cfg.Checkpoint = hetsort.CheckpointConfig{Enabled: true}
	rep, err := hetsort.Resume(filepath.Join(dir, "resumed.u32"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := tr.Snapshot()
	reconcile(t, final, rep, cfg.BlockKeys)
	if final.Run != 2 {
		t.Errorf("run generation %d after resume, want 2", final.Run)
	}
	if final.Seq <= crashed.Seq {
		t.Errorf("seq %d after resume not beyond pre-resume seq %d", final.Seq, crashed.Seq)
	}
	// The crashed attempt got as far as phase 4 before dying; a resume
	// that re-counted its committed phases would show more step-1 I/O
	// than the report — reconcile() above already proved it does not.
}

// TestTableRenders sanity-checks the -progress text table.
func TestTableRenders(t *testing.T) {
	cfg := baseConfig()
	tr := hetsort.NewProgressTracker()
	cfg.Progress = tr
	if _, _, err := hetsort.Sort(genKeys(4096, 17, len(cfg.Perf)), cfg); err != nil {
		t.Fatal(err)
	}
	table := tr.Snapshot().Table()
	for _, want := range []string{"node", "step", "done", "t="} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}
