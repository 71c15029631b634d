// Package check is the repo's cross-configuration correctness harness:
// a deterministic randomized sweeper that executes the full Config
// cross-product (algorithm × pivot strategy × run formation × fused or
// unfused steps 4+5 × Overlap × checkpoint/crash-resume) against seeded
// inputs and verifies a registry of machine-checked invariants on every
// run — the paper's guarantees (the PSRS ≤2× load-balance theorem, the
// step I/O budgets of Algorithm 1) plus the simulator's own contracts
// (permutation checksums, byte-identity across execution strategies, the
// virtual-time attribution identity).
//
// A failing case is shrunk — keys first, then config axes toward the
// zero value — and printed as a ready-to-paste Go reproduction, so every
// future perf PR can run `hetcheck -quick` and get a minimal repro for
// anything it broke.
package check

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hetsort"
	"hetsort/internal/progress"
	"hetsort/internal/record"
)

// Case is one harness execution: a seeded input plus a configuration.
// The same Case always produces the same runs — all randomness is
// derived from Seed.
type Case struct {
	// Name identifies the case in summaries ("seed42/uniform/n=1000").
	Name string
	// Seed is the generation seed the case was derived from (echoed in
	// repros; 0 for hand-built cases).
	Seed int64
	// Keys is the input.
	Keys []hetsort.Key
	// Config is the base configuration.  Fusion, Overlap, Checkpoint,
	// Topology and Disks are equivalence axes: the runner executes the
	// base run plus variants toggling them, and the equivalence invariant
	// demands identical output from all of them.
	Config hetsort.Config
}

// Run is one execution of a Case under one point of the equivalence
// axes.
type Run struct {
	// Label names the axis point ("base", "unfused", "overlap",
	// "tree/r2", "grid", "disks/d4", "checkpoint", "crash@3+resume").
	Label string
	// Config is the exact configuration the run used.
	Config hetsort.Config
	// Output is the sorted result.
	Output []hetsort.Key
	// Report is the run's report (nil if the run errored).
	Report *hetsort.Report
	// Resumed marks outputs produced by a crash-interrupted run
	// completed with Resume (step-wise budgets do not apply: recovery
	// legitimately redoes work).
	Resumed bool
	// Progress holds the live snapshots a host-time sampler collected
	// while the run executed, in sample order; the last element is
	// FinalProgress.  The progress invariant checks their monotonicity.
	Progress []*progress.Snapshot
	// FinalProgress is the post-run snapshot (taken after Sort/Resume
	// returned), reconciled byte-exactly against Report.NodeIO.
	FinalProgress *progress.Snapshot
	// Err is the run error, if any.
	Err error
}

// Outcome is everything the invariants inspect: the case and all of its
// runs.  Runs[0] is always the base run.
type Outcome struct {
	Case *Case
	Runs []Run
}

// RunOptions controls how a case is executed.
type RunOptions struct {
	// Scratch, when non-empty, is a directory the runner may use for
	// durable node disks; it enables the crash/resume equivalence
	// variant.  Empty skips that variant.
	Scratch string
	// NoVariants executes only the base run (used while shrinking,
	// where only the failing invariant needs to be reproduced, and by
	// callers that filtered equivalence out).
	NoVariants bool
	// QuickTopology trims the topology equivalence variants to the
	// cheap pair (tree radix 2 and grid) for PR-gate sweeps.
	QuickTopology bool
	// CrashPhase pins the injected crash phase for the resume variant
	// (1..5); 0 derives one from the case seed.
	CrashPhase int
}

// Execute runs the case: the base configuration first, then — unless
// NoVariants — the equivalence variants along the fusion, Overlap,
// Topology, Disks and checkpoint/crash-resume axes.  Run errors are
// recorded, not returned: an error is itself an invariant violation
// ("error").
func Execute(c *Case, opts RunOptions) *Outcome {
	o := &Outcome{Case: c}
	base := c.Config
	o.Runs = append(o.Runs, execute("base", c.Keys, base))
	if opts.NoVariants {
		return o
	}
	psrs := base.Algorithm == "" || base.Algorithm == hetsort.AlgorithmExternalPSRS
	if psrs {
		// Fusing steps 4 and 5 is an execution strategy: messages as large
		// as M fit no final round's buffers, so the unfused variant takes
		// the barrier fallback wherever the base run fused.
		unfused := base
		unfused.MessageKeys = withDefaults(base).MemoryKeys
		o.Runs = append(o.Runs, execute("unfused", c.Keys, unfused))
		overlap := base
		overlap.Overlap = !base.Overlap
		o.Runs = append(o.Runs, execute("overlap", c.Keys, overlap))
		// Topology is an equivalence axis too: hierarchical pivot
		// aggregation and multi-round redistribution must reproduce the
		// flat output byte for byte.  A flat base fans out across the
		// tree radixes and the grid; a hierarchical base gets the flat
		// reference run instead.
		if flatTopology(base) {
			topos := []struct {
				label, topo string
				radix       int
			}{
				{"tree/r2", hetsort.TopologyTree, 2},
				{"grid", hetsort.TopologyGrid, 0},
				{"tree/r4", hetsort.TopologyTree, 4},
				{"tree/r16", hetsort.TopologyTree, 16},
			}
			if opts.QuickTopology {
				topos = topos[:2]
			}
			for _, tv := range topos {
				cfg := base
				cfg.Topology, cfg.Radix = tv.topo, tv.radix
				o.Runs = append(o.Runs, execute(tv.label, c.Keys, cfg))
			}
		} else {
			cfg := base
			cfg.Topology, cfg.Radix = hetsort.TopologyFlat, 0
			o.Runs = append(o.Runs, execute("flat", c.Keys, cfg))
		}
		// Disks is an equivalence axis too: the PDM D parameter is
		// timing-only, so a multi-disk node must reproduce the
		// single-disk output (and I/O counts — the disk invariant
		// checks those) byte for byte.  A single-disk base gets a
		// striped D=4 variant; a multi-disk base gets the single-disk
		// reference run.
		if base.Disks <= 1 {
			cfg := base
			cfg.Disks = 4
			o.Runs = append(o.Runs, execute("disks/d4", c.Keys, cfg))
		} else {
			cfg := base
			cfg.Disks, cfg.DiskAccess = 0, ""
			o.Runs = append(o.Runs, execute("disks/d1", c.Keys, cfg))
		}
		if !base.Checkpoint.Enabled {
			cfg := base
			cfg.Checkpoint = hetsort.CheckpointConfig{Enabled: true}
			o.Runs = append(o.Runs, execute("checkpoint", c.Keys, cfg))
		}
		if opts.Scratch != "" {
			o.Runs = append(o.Runs, executeCrashResume(c, opts))
		}
	}
	return o
}

// execute performs one in-memory sort run with a live progress sampler
// attached, so every harness run also exercises the introspection path.
func execute(label string, keys []hetsort.Key, cfg hetsort.Config) Run {
	tr := hetsort.NewProgressTracker()
	cfg.Progress = tr
	smp := startSampler(tr)
	out, rep, err := hetsort.Sort(keys, cfg)
	run := Run{Label: label, Config: cfg, Output: out, Report: rep, Err: err}
	run.Progress, run.FinalProgress = smp.finish()
	return run
}

// progressSampler polls a tracker on a host-time cadence from a
// separate goroutine — the same shape as hetsortd's SSE loop — so the
// snapshots genuinely race the run they observe.
type progressSampler struct {
	tr    *progress.Tracker
	stop  chan struct{}
	done  chan struct{}
	snaps []*progress.Snapshot
}

func startSampler(tr *progress.Tracker) *progressSampler {
	s := &progressSampler{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *progressSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if snap := s.tr.Snapshot(); snap != nil {
				s.snaps = append(s.snaps, snap)
			}
		}
	}
}

// finish stops the sampler and returns the collected snapshots plus a
// final post-run snapshot (appended, so it is also the last element).
func (s *progressSampler) finish() ([]*progress.Snapshot, *progress.Snapshot) {
	close(s.stop)
	<-s.done
	final := s.tr.Snapshot()
	if final != nil {
		s.snaps = append(s.snaps, final)
	}
	return s.snaps, final
}

// executeCrashResume runs the case with durable checkpoints, kills one
// node at one phase boundary, resumes the run from the manifests, and
// returns the resumed output.  The phase and victim are derived from
// the case seed so every sweep exercises a different boundary.
func executeCrashResume(c *Case, opts RunOptions) Run {
	cfg := c.Config
	p := nodes(cfg)
	phase := opts.CrashPhase
	if phase < 1 || phase > 5 {
		phase = int(mix(c.Seed)%5) + 1
	}
	victim := int(mix(c.Seed>>3) % uint64(p))
	label := fmt.Sprintf("crash@%d+resume", phase)

	dir, err := os.MkdirTemp(opts.Scratch, "case")
	if err != nil {
		return Run{Label: label, Config: cfg, Err: err}
	}
	defer os.RemoveAll(dir)
	cfg.WorkDir = filepath.Join(dir, "disks")
	cfg.Checkpoint = hetsort.CheckpointConfig{Enabled: true, CrashPhase: phase, CrashNode: victim}

	// One tracker spans the crashed attempt AND the resume: Seq must
	// stay monotonic across the boundary while the Run generation bumps
	// (the progress invariant checks both).
	tr := hetsort.NewProgressTracker()
	cfg.Progress = tr
	smp := startSampler(tr)
	run := func() Run {
		_, _, err := hetsort.Sort(c.Keys, cfg)
		if err == nil {
			return Run{Label: label, Config: cfg,
				Err: fmt.Errorf("injected crash at phase %d on node %d did not fire", phase, victim)}
		}
		if !hetsort.IsCrash(err) {
			return Run{Label: label, Config: cfg, Err: fmt.Errorf("expected an injected crash, got: %w", err)}
		}

		resumeCfg := cfg
		resumeCfg.Checkpoint = hetsort.CheckpointConfig{Enabled: true}
		outPath := filepath.Join(dir, "resumed.u32")
		rep, err := hetsort.Resume(outPath, resumeCfg)
		if err != nil {
			return Run{Label: label, Config: resumeCfg, Err: fmt.Errorf("resume after crash@%d: %w", phase, err), Resumed: true}
		}
		raw, err := os.ReadFile(outPath)
		if err != nil {
			return Run{Label: label, Config: resumeCfg, Err: err, Resumed: true}
		}
		if len(raw)%record.KeySize != 0 {
			return Run{Label: label, Config: resumeCfg, Resumed: true,
				Err: fmt.Errorf("resumed output is %d bytes, not a multiple of %d", len(raw), record.KeySize)}
		}
		out := record.DecodeKeys(make([]hetsort.Key, 0, len(raw)/record.KeySize), raw)
		return Run{Label: label, Config: resumeCfg, Output: out, Report: rep, Resumed: true}
	}()
	run.Progress, run.FinalProgress = smp.finish()
	return run
}

// Failure is one invariant violation on one case.
type Failure struct {
	Case      *Case
	Invariant string
	Err       error
	// Repro is a ready-to-paste Go test reproducing the failure,
	// filled in by Shrink.
	Repro string
}

func (f Failure) String() string {
	return fmt.Sprintf("%s: invariant %q violated: %v", f.Case.Name, f.Invariant, f.Err)
}

// Check executes a case and evaluates the selected invariants (all of
// them for an empty filter).  Scratch enables the crash/resume variant.
func Check(c *Case, opts RunOptions, filter string) []Failure {
	invs := Select(filter)
	if len(invs) == 0 {
		return nil
	}
	if !selected(invs, "equivalence") && !selected(invs, "error") && !selected(invs, "disk") {
		// Variants exist to be compared (equivalence, the cross-D half
		// of disk) and to surface run errors; with all three filtered
		// out the base run suffices.
		opts.NoVariants = true
	}
	o := Execute(c, opts)
	var fails []Failure
	for _, inv := range invs {
		if inv.Applies != nil && !inv.Applies(c) {
			continue
		}
		if err := inv.Check(o); err != nil {
			fails = append(fails, Failure{Case: c, Invariant: inv.Name, Err: err})
		}
	}
	return fails
}

// Recheck is the entry point repro snippets call: it rebuilds a case
// from bare keys and config, runs it with all equivalence variants that
// need no scratch directory, and evaluates the named invariants
// (comma-separated; empty = all).
func Recheck(keys []hetsort.Key, cfg hetsort.Config, invariants string) []Failure {
	c := &Case{Name: "recheck", Keys: keys, Config: cfg}
	return Check(c, RunOptions{}, invariants)
}

func selected(invs []Invariant, name string) bool {
	for _, inv := range invs {
		if inv.Name == name {
			return true
		}
	}
	return false
}

// flatTopology reports whether a config runs the flat single-round
// redistribution (the default).
func flatTopology(cfg hetsort.Config) bool {
	return cfg.Topology == "" || cfg.Topology == hetsort.TopologyFlat
}

// nodes returns the cluster size a config resolves to.
func nodes(cfg hetsort.Config) int {
	if len(cfg.Perf) > 0 {
		return len(cfg.Perf)
	}
	if cfg.Nodes > 0 {
		return cfg.Nodes
	}
	return 4
}

// mix is a splitmix64 step: cheap, deterministic derivation of
// per-purpose values from a case seed.
func mix(seed int64) uint64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// equalKeys reports whether two outputs are identical key for key.
func equalKeys(a, b []hetsort.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// firstDiff locates the first differing index of two equal-length
// outputs (-1 if only the lengths differ).
func firstDiff(a, b []hetsort.Key) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
