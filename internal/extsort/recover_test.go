package extsort

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"hetsort/internal/checkpoint"
	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/merkle"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/trace"
)

// collectOutput concatenates the node output files in rank order.
func collectOutput(t *testing.T, c *cluster.Cluster, block int) []record.Key {
	t.Helper()
	var all []record.Key
	for i := 0; i < c.P(); i++ {
		part, err := diskio.ReadFileAll(c.Node(i).FS(), "output", block, diskio.Accounting{})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, part...)
	}
	return all
}

func totalIO(c *cluster.Cluster) int64 {
	var io int64
	for i := 0; i < c.P(); i++ {
		io += c.Node(i).IOStats().Total()
	}
	return io
}

// checkRecoveryEvents holds a resumed run's recovery trace against what
// the step table owes for the commit levels the nodes resumed from (read
// back from their "resume" events): every committed step is traced as
// skipped, a node short of phase 2 adopts a peer's pivots when any peer
// has them, and a node past phase 4 re-sends one bucket — a section of
// its sorted file, named by the cuts its manifest held (cuts[i]) — to
// every peer short of it; nothing else and nothing twice.  crashed died
// having committed wantDone phases.
func checkRecoveryEvents(t *testing.T, events []trace.Event, cuts [][]int64, crashed, wantDone int) {
	t.Helper()
	done := make([]int, len(cuts))
	got := map[string]int{}
	most := 0
	for _, e := range events {
		if e.Kind != trace.Recovery {
			continue
		}
		if e.Label == "resume" {
			if _, err := fmt.Sscanf(e.Detail, "phases-done:%d", &done[e.Node]); err != nil {
				t.Fatalf("resume event %q: %v", e.Detail, err)
			}
			most = max(most, done[e.Node])
			continue
		}
		got[fmt.Sprintf("node %d: %s: %s", e.Node, e.Label, e.Detail)]++
	}
	if done[crashed] != wantDone {
		t.Errorf("crashed node %d resumed from phase %d, want %d", crashed, done[crashed], wantDone)
	}
	want := map[string]int{}
	for i, d := range done {
		for s := 0; s < d; s++ {
			want[fmt.Sprintf("node %d: %s: skipped (already committed)", i, StepNames[s])]++
		}
		if d < 2 && most >= 2 {
			want[fmt.Sprintf("node %d: %s: pivots adopted from a peer's manifest", i, StepNames[1])]++
		}
		for j, dj := range done {
			if d >= 4 && dj < 4 && j != i {
				want[fmt.Sprintf("node %d: resend: hetsort.sorted[%d:+%d] for node %d -> node %d",
					i, cuts[i][j], cuts[i][j+1]-cuts[i][j], j, j)]++
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovery events for commit levels %v:\n got %v\nwant %v", done, got, want)
	}
}

// manifestState loads every node's manifest of a crashed run: the phase
// it committed and the cuts it recorded (nil outside phases 3–4).
func manifestState(t *testing.T, c *cluster.Cluster) (phases []int, cuts [][]int64) {
	t.Helper()
	for i := 0; i < c.P(); i++ {
		m, err := checkpoint.Load(c.Node(i).FS())
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, m.Phase)
		cuts = append(cuts, m.Cuts)
	}
	return phases, cuts
}

// TestCrashAtEveryPhaseResumesIdentically is the acceptance property of
// the checkpoint subsystem, driven over the step table: kill a node at
// any of the five phase boundaries — just before its commit, or just
// after it (mixed-phase cluster state) — and the resumed run must
// produce output identical to an uninterrupted run of the same
// configuration and seed, tracing exactly the recovery its commit levels
// call for.
func TestCrashAtEveryPhaseResumesIdentically(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 14)
	base := testConfig(v)
	base.Checkpoint = true
	const seed = 42

	// Reference: the same checkpointed sort, uninterrupted.
	refC := newCluster(t, v)
	refSum, err := DistributeInput(refC, v, record.Uniform, n, seed, base.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	refCfg := base
	refCfg.InputSum = refSum
	ref, err := Sort(refC, refCfg, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	want := collectOutput(t, refC, base.BlockKeys)

	points := []string{"committed:start"} // right after the phase-0 manifest
	for _, s := range StepNames {
		points = append(points, s)              // after the phase's work, before its commit
		points = append(points, "committed:"+s) // after the commit, before the barrier
	}

	for pi, point := range points {
		point := point
		crashNode := pi % len(v)
		t.Run(point, func(t *testing.T) {
			tl := new(trace.Log)
			c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64, Trace: tl})
			if err != nil {
				t.Fatal(err)
			}
			sum, err := DistributeInput(c, v, record.Uniform, n, seed, base.BlockKeys, "input")
			if err != nil {
				t.Fatal(err)
			}
			cfg := base
			cfg.InputSum = sum
			if err := c.ScheduleCrash(crashNode, -1, point); err != nil {
				t.Fatal(err)
			}
			_, err = Sort(c, cfg, "input", "output")
			if !cluster.IsCrash(err) {
				t.Fatalf("crash at %q did not surface: %v", point, err)
			}
			crashedIO := totalIO(c)
			phases, cuts := manifestState(t, c)

			res, got, err := Resume(c, cfg, "input", "output")
			if err != nil {
				t.Fatalf("resume after crash at %q: %v", point, err)
			}
			if !got.Equal(sum) {
				t.Error("manifest input checksum differs from the distributed input's")
			}
			if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
				t.Fatalf("resumed output: %v", err)
			}
			out := collectOutput(t, c, cfg.BlockKeys)
			if len(out) != len(want) {
				t.Fatalf("resumed output has %d keys, reference %d", len(out), len(want))
			}
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("resumed output diverges from the uninterrupted run at key %d: %d != %d",
						i, out[i], want[i])
				}
			}
			// A node resumed past step 1 rebuilt its index by a scan; the
			// pivots and the cuts (hence the partitions) are the captured
			// index's.
			if !slices.Equal(res.Pivots, ref.Pivots) || !slices.Equal(res.PartitionSizes, ref.PartitionSizes) {
				t.Errorf("resumed pivots %v partitions %v, uninterrupted %v %v",
					res.Pivots, res.PartitionSizes, ref.Pivots, ref.PartitionSizes)
			}
			// The redone work is real, accounted I/O.  The one point
			// with nothing to redo is a crash after the final commit:
			// there the resume legitimately performs no new I/O.
			var resumedIO int64
			for _, s := range res.NodeIO {
				resumedIO += s.Total()
			}
			if crashedIO == 0 {
				t.Error("crashed run performed no accounted I/O")
			}
			if resumedIO == 0 && point != "committed:"+StepNames[4] {
				t.Errorf("recovery I/O not accounted after crash at %q", point)
			}
			if res.Time <= 0 {
				t.Errorf("resumed run reports no virtual time")
			}
			// A node that committed phase 3 resumes on the cuts in its
			// manifest: it never scans the sorted file again.
			for i, ph := range phases {
				if io := res.StepIO[2][i]; ph >= 3 && io.Total() != 0 {
					t.Errorf("node %d resumed from phase %d but did step-3 I/O %+v", i, ph, io)
				}
			}
			// points[pi] is reached with pi/2 phases committed.
			checkRecoveryEvents(t, tl.Events(), cuts, crashNode, pi/2)
		})
	}
}

// TestResumeTraceAndResend checks the observability contract: a resumed
// run traces its recovery decisions, and a node that died during
// redistribution gets its lost segments re-sent from the peers'
// sorted files (visible as "resend" recovery events).
func TestResumeTraceAndResend(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 14)
	tl := new(trace.Log)
	c, err := cluster.New(cluster.Config{Slowdowns: v.Slowdowns(), BlockKeys: 64, Trace: tl})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(v)
	cfg.Checkpoint = true
	sum, err := DistributeInput(c, v, record.Uniform, n, 7, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	// Die after receiving but before committing phase 4: the node's
	// in-flight state is lost while its peers commit and move on.
	if err := c.ScheduleCrash(1, -1, StepNames[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
	if _, _, err := Resume(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
	var commits, recoveries, resends int
	for _, e := range tl.Events() {
		switch e.Kind {
		case trace.Checkpoint:
			commits++
		case trace.Recovery:
			recoveries++
			if e.Label == "resend" {
				resends++
			}
		}
	}
	if commits == 0 {
		t.Error("no checkpoint commit events traced")
	}
	if recoveries == 0 {
		t.Error("no recovery events traced")
	}
	if resends == 0 {
		t.Error("no resend events: lost redistribution segments were not re-sent")
	}
}

func TestResumeRejectsChangedConfig(t *testing.T) {
	v := perf.Vector{1, 1}
	n := v.NearestValidSize(1 << 12)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Checkpoint = true
	sum, err := DistributeInput(c, v, record.Uniform, n, 3, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	if err := c.ScheduleCrash(0, -1, StepNames[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
	changed := cfg
	changed.MessageKeys = cfg.MessageKeys * 2
	if _, _, err := Resume(c, changed, "input", "output"); err == nil {
		t.Fatal("resume with a different message size accepted")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("unhelpful error: %v", err)
	}
	// The original configuration still resumes.
	if _, _, err := Resume(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
}

// crashedPair runs a checkpointed two-node sort that dies on node 0 at
// the named crash point and returns the cluster and its configuration.
func crashedPair(t *testing.T, point string) (*cluster.Cluster, Config) {
	t.Helper()
	v := perf.Vector{1, 1}
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Checkpoint = true
	sum, err := DistributeInput(c, v, record.Uniform, v.NearestValidSize(1<<12), 3, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	if err := c.ScheduleCrash(0, -1, point); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
	return c, cfg
}

// TestStrategyFingerprintStaysPut pins the resume fingerprint of every
// strategy.  The histogram printed strat=3 while the retired quantile
// sketch held 2; it keeps 3, so the extsort-v8 checkpoints written then
// still resume.
func TestStrategyFingerprintStaysPut(t *testing.T) {
	cfg := Config{Perf: perf.Vector{1, 1, 4, 4}, HistTolerance: 0.05}
	cfg.ApplyDefaults(4)
	for strat, code := range map[Strategy]int{RegularSampling: 0, RandomPivots: 1, Histogram: 3} {
		cfg.Strategy = strat
		want := fmt.Sprintf("extsort-v8 perf=[1 1 4 4] B=2048 M=65536 T=15 msg=8192 rf=0 strat=%d htol=0.05 seed=0 topo=0 r=4 in=input out=output", code)
		if got := cfg.sig("input", "output"); got != want {
			t.Errorf("%v fingerprint\n got %s\nwant %s", strat, got, want)
		}
	}
}

// TestResumeRefusesV2Manifest: a checkpoint written under an older
// fingerprint — extsort-v2 recorded d=, the disk count its node files
// were physically striped over; extsort-v3 kept its buckets in p segment
// files where v4 keeps cut offsets; extsort-v4 recorded over=, the factor
// of a pivot strategy v5 no longer has (and numbered the strategies with
// it in the enum); extsort-v5 recorded eps=, the sketch error bound v6
// fixes as a constant; extsort-v6 has v7's fields, but its cuts were key
// cuts, where v7's tied pivots cut inside a run of equal keys; extsort-v7
// has v8's fields, but its step 1 always wrote the sorted file, where
// v8's may leave runs with a row of cuts each — is
// refused by fingerprint, with the error that names both configurations,
// never by a missing file.
func TestResumeRefusesV2Manifest(t *testing.T) {
	for _, old := range []struct{ version, extra string }{
		{"extsort-v2 ", " d=1 in="},
		{"extsort-v3 ", " in="},
		{"extsort-v4 ", " over=0 in="},
		{"extsort-v5 ", " eps=0.01 in="},
		{"extsort-v6 ", " in="},
		{"extsort-v7 ", " in="},
	} {
		t.Run(strings.TrimSpace(old.version), func(t *testing.T) {
			c, cfg := crashedPair(t, StepNames[2])
			for i := 0; i < c.P(); i++ {
				fs := c.Node(i).FS()
				m, err := checkpoint.Load(fs)
				if err != nil {
					t.Fatal(err)
				}
				cur := m.Sig
				m.Sig = strings.Replace(strings.Replace(cur, "extsort-v8 ", old.version, 1), " in=", old.extra, 1)
				if m.Sig == cur || !strings.HasPrefix(m.Sig, old.version) {
					t.Fatalf("could not age fingerprint %q", cur)
				}
				if err := checkpoint.Save(fs, m, diskio.Accounting{}); err != nil {
					t.Fatal(err)
				}
			}
			_, _, err := Resume(c, cfg, "input", "output")
			if err == nil {
				t.Fatalf("resume from %smanifests accepted", old.version)
			}
			for _, want := range []string{"different configuration", old.version, "extsort-v8 "} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error does not mention %q: %v", want, err)
				}
			}
		})
	}
}

// TestResumeRefusesTamperedCuts: from phase 3 on a node's buckets exist
// only as the cut offsets in its manifest and the sorted file they point
// into, so a resume must refuse cuts that cannot be that file's — and a
// sorted file that is no longer the one they were taken from.
func TestResumeRefusesTamperedCuts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(t *testing.T, fs diskio.FS, m *checkpoint.Manifest)
	}{
		{"missing", func(_ *testing.T, _ diskio.FS, m *checkpoint.Manifest) { m.Cuts = nil }},
		{"one-short", func(_ *testing.T, _ diskio.FS, m *checkpoint.Manifest) { m.Cuts = m.Cuts[:len(m.Cuts)-1] }},
		{"first-not-zero", func(_ *testing.T, _ diskio.FS, m *checkpoint.Manifest) { m.Cuts[0] = 1 }},
		{"descending", func(_ *testing.T, _ diskio.FS, m *checkpoint.Manifest) { m.Cuts[1] = m.Cuts[2] + 1 }},
		{"past-end", func(_ *testing.T, _ diskio.FS, m *checkpoint.Manifest) { m.Cuts[len(m.Cuts)-1]++ }},
		{"sorted-file-truncated", func(t *testing.T, fs diskio.FS, _ *checkpoint.Manifest) {
			keys, err := diskio.ReadFileAll(fs, sortedName, 64, diskio.Accounting{})
			if err != nil {
				t.Fatal(err)
			}
			if err := diskio.WriteFile(fs, sortedName, keys[:len(keys)-1], 64, diskio.Accounting{}); err != nil {
				t.Fatal(err)
			}
		}},
		{"sorted-file-missing", func(t *testing.T, fs diskio.FS, _ *checkpoint.Manifest) {
			if err := fs.Remove(sortedName); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Node 0 dies between step 4's work and its commit, so node 1
			// stands at phase 3 or 4: cuts recorded either way.
			c, cfg := crashedPair(t, StepNames[3])
			fs := c.Node(1).FS()
			m, err := checkpoint.Load(fs)
			if err != nil {
				t.Fatal(err)
			}
			if m.Phase < 3 || len(m.Cuts) != c.P()+1 {
				t.Fatalf("phase-%d manifest with cuts %v, want phase 3 or 4 and %d cuts", m.Phase, m.Cuts, c.P()+1)
			}
			tc.tamper(t, fs, m)
			if err := checkpoint.Save(fs, m, diskio.Accounting{}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Resume(c, cfg, "input", "output"); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("resume over tampered state: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestResumeLoadsRetiredMerkleFields: manifests once carried a content
// hash per file ("sha256") and a Merkle root over them ("root") in a run
// that anchored its artifacts.  A manifest written that way — a daemon
// upgraded in the middle of a job — still loads, and its run resumes to
// the bytes of an uninterrupted run.  The fields are filled in as that
// format computed them: the SHA-256 of each file's bytes, and the root
// of those leaves bound to the file names.
func TestResumeLoadsRetiredMerkleFields(t *testing.T) {
	v := perf.Vector{1, 1}
	refC := newCluster(t, v)
	refCfg := testConfig(v)
	refCfg.Checkpoint = true
	var err error
	if refCfg.InputSum, err = DistributeInput(refC, v, record.Uniform, v.NearestValidSize(1<<12), 3, refCfg.BlockKeys, "input"); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(refC, refCfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	want := collectOutput(t, refC, refCfg.BlockKeys)
	for _, point := range []string{StepNames[4], "committed:" + StepNames[4]} {
		t.Run(point, func(t *testing.T) {
			c, cfg := crashedPair(t, point)
			for i := 0; i < c.P(); i++ {
				fs := c.Node(i).FS()
				m, err := checkpoint.Load(fs)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(m)
				if err != nil {
					t.Fatal(err)
				}
				var old map[string]any
				if err := json.Unmarshal(raw, &old); err != nil {
					t.Fatal(err)
				}
				var leaves []merkle.Leaf
				for _, fi := range old["files"].([]any) {
					fi := fi.(map[string]any)
					content, err := diskio.ReadFileAll(fs, fi["name"].(string), cfg.BlockKeys, diskio.Accounting{})
					if err != nil {
						t.Fatal(err)
					}
					leaf := merkle.Leaf{Name: fi["name"].(string), Sum: sha256.Sum256(record.EncodeKeys(nil, content))}
					fi["sha256"] = hex.EncodeToString(leaf.Sum[:])
					leaves = append(leaves, leaf)
				}
				tree, err := merkle.New(leaves)
				if err != nil {
					t.Fatal(err)
				}
				root := tree.Root()
				old["root"] = hex.EncodeToString(root[:])
				body, err := json.Marshal(old)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(body)
				f, err := fs.Create(checkpoint.ManifestName)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(f, "hetsort-checkpoint-v1 sha256=%x\n%s", sum, body)
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := Resume(c, cfg, "input", "output"); err != nil {
				t.Fatalf("resume from manifests with sha256 and root fields: %v", err)
			}
			if got := collectOutput(t, c, cfg.BlockKeys); !slices.Equal(got, want) {
				t.Fatal("resumed output differs from an uninterrupted run's")
			}
		})
	}
}

func TestResumeWithoutManifests(t *testing.T) {
	v := perf.Vector{1, 1}
	c := newCluster(t, v)
	cfg := testConfig(v)
	if _, err := DistributeInput(c, v, record.Uniform, 1<<10, 1, cfg.BlockKeys, "input"); err != nil {
		t.Fatal(err)
	}
	// Not checkpointed, so there is nothing to resume from.
	if _, err := Sort(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Resume(c, cfg, "input", "output"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want a no-manifest error, got %v", err)
	}
}

// TestCheckpointedSortCleansIntermediates: after an uninterrupted
// checkpointed run, the retained sorted and received files are gone —
// retention ends at the phase-5 commit — and only input, output and the
// manifest remain.
func TestCheckpointedSortCleansIntermediates(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 13)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Checkpoint = true
	sum, err := DistributeInput(c, v, record.Uniform, n, 5, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	if _, err := Sort(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.P(); i++ {
		names, err := c.Node(i).FS().Names()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			switch name {
			case "input", "output", "hetsort.ckpt":
			default:
				t.Errorf("node %d: leftover intermediate %q", i, name)
			}
		}
	}
}

// TestCrashMidPhaseByClock kills a node by virtual-time trigger (inside
// a phase, not at a boundary) and resumes.
func TestCrashMidPhaseByClock(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 14)
	c := newCluster(t, v)
	cfg := testConfig(v)
	cfg.Checkpoint = true
	sum, err := DistributeInput(c, v, record.Uniform, n, 9, cfg.BlockKeys, "input")
	if err != nil {
		t.Fatal(err)
	}
	cfg.InputSum = sum
	// First, measure an uninterrupted run to pick a mid-run clock.
	probe := newCluster(t, v)
	if _, err := DistributeInput(probe, v, record.Uniform, n, 9, cfg.BlockKeys, "input"); err != nil {
		t.Fatal(err)
	}
	res, err := Sort(probe, cfg, "input", "output")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleCrash(2, res.Time/2, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Sort(c, cfg, "input", "output"); !cluster.IsCrash(err) {
		t.Fatalf("want crash, got %v", err)
	}
	if _, _, err := Resume(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if err := VerifyOutput(c, "output", cfg.BlockKeys, sum); err != nil {
		t.Fatal(err)
	}
}
