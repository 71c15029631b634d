package hetsort

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hetsort/internal/pdm"
)

// TestSortMultiDiskEquivalence: the PDM D parameter is timing-only at
// the sort's interface — output, I/O counts and partitions are
// identical at any D and access mode, per-disk counters sum to the node
// counters, and D=4 finishes strictly faster than D=1 — for Algorithm 1
// and the DeWitt baseline alike.
func TestSortMultiDiskEquivalence(t *testing.T) {
	keys := make([]Key, 32768)
	for i := range keys {
		keys[i] = Key(2654435761 * uint32(i+7))
	}
	for _, algo := range []Algorithm{AlgorithmExternalPSRS, AlgorithmDeWitt} {
		t.Run(algo.String(), func(t *testing.T) {
			base := Config{MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512, Algorithm: algo}
			run := func(mut func(*Config)) ([]Key, *Report) {
				cfg := base
				mut(&cfg)
				sorted, rep, err := Sort(keys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sorted, rep
			}
			s1, r1 := run(func(c *Config) {})
			s4, r4 := run(func(c *Config) { c.Disks = 4 })
			sInd, rInd := run(func(c *Config) { c.Disks = 4; c.DiskAccess = DiskAccessIndependent })

			for name, s := range map[string][]Key{"D=4": s4, "D=4-independent": sInd} {
				if !slices.Equal(s, s1) {
					t.Fatalf("%s output differs from D=1", name)
				}
			}
			for i := range r1.NodeIO {
				if r1.NodeIO[i] != r4.NodeIO[i] || r1.NodeIO[i] != rInd.NodeIO[i] {
					t.Fatalf("node %d I/O differs across D: %v / %v / %v",
						i, r1.NodeIO[i], r4.NodeIO[i], rInd.NodeIO[i])
				}
			}
			if r1.DiskIO != nil {
				t.Fatal("Report.DiskIO populated at D=1")
			}
			if len(r4.DiskIO) != len(r4.NodeIO) {
				t.Fatalf("Report.DiskIO has %d nodes, want %d", len(r4.DiskIO), len(r4.NodeIO))
			}
			for i, dio := range r4.DiskIO {
				if len(dio) != 4 {
					t.Fatalf("node %d has %d disk entries, want 4", i, len(dio))
				}
				var sum pdm.IOStats
				for _, s := range dio {
					sum = sum.Add(s)
				}
				if sum != r4.NodeIO[i] {
					t.Fatalf("node %d per-disk sum %v != node I/O %v", i, sum, r4.NodeIO[i])
				}
			}
			if r4.Time >= r1.Time {
				t.Fatalf("D=4 (%v virtual s) not faster than D=1 (%v)", r4.Time, r1.Time)
			}
		})
	}
}

// TestSortGuidesortFormer: the guidesort run former produces the same
// partitions as the default former (pivots depend only on the sorted
// file) and a valid sorted output.
func TestSortGuidesortFormer(t *testing.T) {
	keys := make([]Key, 20000)
	for i := range keys {
		keys[i] = Key(1664525*uint32(i) + 1013904223)
	}
	base := Config{MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512}
	sortedDef, repDef, err := Sort(keys, base)
	if err != nil {
		t.Fatal(err)
	}
	gs := base
	gs.RunFormation = RunGuidesort
	sortedGS, repGS, err := Sort(keys, gs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sortedDef {
		if sortedDef[i] != sortedGS[i] {
			t.Fatalf("guidesort output differs at key %d", i)
		}
	}
	for i := range repDef.PartitionSizes {
		if repDef.PartitionSizes[i] != repGS.PartitionSizes[i] {
			t.Fatalf("guidesort changed the partitioning: %v vs %v",
				repGS.PartitionSizes, repDef.PartitionSizes)
		}
	}
}

// TestSortFileMultiDiskCrashResume: D and Overlap are execution
// strategies, not layouts.  At D in {1, 4}, synchronous and overlapped,
// a checkpointed run crashed at any of the five phases resumes to output
// byte-identical to a plain uninterrupted D=1 run; and because node
// files are the same plain files at every D, a D=4 checkpoint resumes
// under D=2 just as well.
func TestSortFileMultiDiskCrashResume(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.u32")
	writeKeyFile(t, inPath, 40000)

	cfg := Config{Perf: []int{1, 1, 4, 4}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512}

	refCfg := cfg
	refCfg.WorkDir = filepath.Join(dir, "ref")
	refOut := filepath.Join(dir, "ref.u32")
	if _, err := SortFile(inPath, refOut, refCfg); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}

	crashAndResume := func(t *testing.T, crashCfg Config, phase, resumeDisks int) {
		work := t.TempDir()
		crashCfg.WorkDir = work
		crashCfg.Checkpoint = CheckpointConfig{Enabled: true, CrashNode: phase % 4, CrashPhase: phase}
		outPath := filepath.Join(work, "out.u32")
		if _, err := SortFile(inPath, outPath, crashCfg); !IsCrash(err) {
			t.Fatalf("want an injected crash, got %v", err)
		}
		resCfg := crashCfg
		resCfg.Disks = resumeDisks
		resCfg.Checkpoint = CheckpointConfig{Enabled: true}
		rep, err := Resume(outPath, resCfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("resumed output differs from the uninterrupted D=1 run")
		}
		if resumeDisks > 1 && len(rep.DiskIO[0]) != resumeDisks {
			t.Fatalf("resumed run reports %d member disks, want %d", len(rep.DiskIO[0]), resumeDisks)
		}
		for i, dio := range rep.DiskIO {
			var sum pdm.IOStats
			for _, s := range dio {
				sum = sum.Add(s)
			}
			if resumeDisks > 1 && sum != rep.NodeIO[i] {
				t.Fatalf("node %d per-disk sum %v != node I/O %v (resumed run)", i, sum, rep.NodeIO[i])
			}
		}
	}

	for _, d := range []int{1, 4} {
		for _, overlap := range []bool{false, true} {
			for phase := 1; phase <= 5; phase++ {
				t.Run(fmt.Sprintf("D%d/overlap=%v/phase%d", d, overlap, phase), func(t *testing.T) {
					c := cfg
					c.Disks, c.Overlap = d, overlap
					crashAndResume(t, c, phase, d)
				})
			}
		}
	}
	t.Run("D4-resumes-under-D2", func(t *testing.T) {
		c := cfg
		c.Disks, c.Overlap = 4, true
		crashAndResume(t, c, 4, 2)
	})
}
