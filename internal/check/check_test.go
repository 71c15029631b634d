package check

import (
	"strings"
	"testing"

	"hetsort"
	"hetsort/internal/pdm"
)

// invariantByName fetches one registry entry for direct exercise.
func invariantByName(t *testing.T, name string) Invariant {
	t.Helper()
	for _, inv := range Registry() {
		if inv.Name == name {
			return inv
		}
	}
	t.Fatalf("no invariant %q in registry", name)
	return Invariant{}
}

func TestSelect(t *testing.T) {
	if got, want := len(Select("")), len(Registry()); got != want {
		t.Fatalf("empty filter selected %d invariants, want all %d", got, want)
	}
	// Substring semantics: "balance" also picks up hist-balance.
	got := Select("balance, step-io")
	if len(got) != 3 || got[0].Name != "balance" || got[1].Name != "hist-balance" || got[2].Name != "step-io" {
		names := make([]string, len(got))
		for i, inv := range got {
			names[i] = inv.Name
		}
		t.Fatalf("filter selected %v, want [balance hist-balance step-io]", names)
	}
	if got := Select("no-such-invariant"); len(got) != 0 {
		t.Fatalf("bogus filter selected %d invariants", len(got))
	}
}

// The synthetic-outcome tests feed hand-built violations straight into
// the invariant checks: the harness must have teeth independent of
// whether the sorter currently has bugs.

func TestSortedInvariantTeeth(t *testing.T) {
	inv := invariantByName(t, "sorted")
	o := &Outcome{
		Case: &Case{Name: "synthetic", Keys: []hetsort.Key{1, 2, 3}},
		Runs: []Run{{Label: "base", Output: []hetsort.Key{1, 3, 2}}},
	}
	if err := inv.Check(o); err == nil {
		t.Fatal("sorted invariant accepted a descending pair")
	}
}

func TestPermutationInvariantTeeth(t *testing.T) {
	inv := invariantByName(t, "permutation")
	c := &Case{Name: "synthetic", Keys: []hetsort.Key{5, 6, 7}}
	// Sorted, right length, wrong multiset.
	o := &Outcome{Case: c, Runs: []Run{{Label: "base", Output: []hetsort.Key{5, 6, 6}}}}
	if err := inv.Check(o); err == nil {
		t.Fatal("permutation invariant accepted a dropped key")
	}
	o = &Outcome{Case: c, Runs: []Run{{Label: "base", Output: []hetsort.Key{5, 6}}}}
	if err := inv.Check(o); err == nil {
		t.Fatal("permutation invariant accepted a short output")
	}
}

func TestEquivalenceInvariantTeeth(t *testing.T) {
	inv := invariantByName(t, "equivalence")
	o := &Outcome{
		Case: &Case{Name: "synthetic", Keys: []hetsort.Key{1, 2}},
		Runs: []Run{
			{Label: "base", Output: []hetsort.Key{1, 2}},
			{Label: "unfused", Output: []hetsort.Key{1, 3}},
		},
	}
	err := inv.Check(o)
	if err == nil {
		t.Fatal("equivalence invariant accepted divergent outputs")
	}
	if !strings.Contains(err.Error(), "unfused") {
		t.Fatalf("violation does not name the divergent run: %v", err)
	}
}

func TestBalanceInvariantTeeth(t *testing.T) {
	inv := invariantByName(t, "balance")
	keys := make([]hetsort.Key, 100)
	for i := range keys {
		keys[i] = hetsort.Key(i)
	}
	c := &Case{Name: "synthetic", Keys: keys, Config: hetsort.Config{Nodes: 2}}
	if inv.Applies != nil && !inv.Applies(c) {
		t.Fatal("balance should apply to 100 distinct keys on 2 homogeneous nodes")
	}
	// One node holding everything violates 2*share+maxdup = 2*50+1.
	rep := &hetsort.Report{PartitionSizes: []int64{200, 0}}
	o := &Outcome{Case: c, Runs: []Run{{Label: "base", Config: c.Config, Output: keys, Report: rep}}}
	if err := inv.Check(o); err == nil {
		t.Fatal("balance invariant accepted a partition of 2x+ the share")
	}
	// The boundary itself is legal.
	rep.PartitionSizes = []int64{101, 0}
	if err := inv.Check(o); err != nil {
		t.Fatalf("balance invariant rejected the exact Theorem-1 bound: %v", err)
	}
}

func TestHistBalanceInvariantTeeth(t *testing.T) {
	inv := invariantByName(t, "hist-balance")
	keys := make([]hetsort.Key, 100)
	for i := range keys {
		keys[i] = hetsort.Key(i)
	}
	c := &Case{Name: "synthetic", Keys: keys, Config: hetsort.Config{Nodes: 2}}
	if inv.Applies(c) {
		t.Fatal("hist-balance must not apply without the histogram strategy")
	}
	c.Config.PivotStrategy = hetsort.PivotHistogram
	if !inv.Applies(c) {
		t.Fatal("hist-balance should apply to the histogram strategy")
	}
	// share=50, default tol=max(1, 0.05*50)=2, maxdup=1, p=2:
	// bound = 50 + 2*(2+1) + 2 = 58 — far below Theorem 1's 101.
	rep := &hetsort.Report{PartitionSizes: []int64{59, 41}}
	o := &Outcome{Case: c, Runs: []Run{{Label: "base", Config: c.Config, Output: keys, Report: rep}}}
	if err := inv.Check(o); err == nil {
		t.Fatal("hist-balance accepted a partition outside the refinement band")
	}
	rep.PartitionSizes = []int64{58, 42}
	if err := inv.Check(o); err != nil {
		t.Fatalf("hist-balance rejected the exact bound: %v", err)
	}
	// A looser configured tolerance widens the band.
	c.Config.HistTolerance = 0.5 // tol = 25
	o.Runs[0].Config = c.Config
	rep.PartitionSizes = []int64{59, 41}
	if err := inv.Check(o); err != nil {
		t.Fatalf("hist-balance ignored the configured tolerance: %v", err)
	}
}

func TestStepIOInvariantTeeth(t *testing.T) {
	inv := invariantByName(t, "step-io")
	keys := make([]hetsort.Key, 4000)
	for i := range keys {
		keys[i] = hetsort.Key(i)
	}
	cfg := hetsort.Config{Nodes: 2, BlockKeys: 16, MemoryKeys: 256, Tapes: 4}
	c := &Case{Name: "synthetic", Keys: keys, Config: cfg}
	rep := &hetsort.Report{PartitionSizes: []int64{2000, 2000}}
	// On 16-key blocks one seek prices above a scan of the l_i/B = 125
	// blocks, so step 3 is that scan...
	rep.StepIO[2] = []pdm.IOStats{{Reads: 125}, {Reads: 125}}
	o := &Outcome{Case: c, Runs: []Run{{Label: "base", Config: cfg, Output: keys, Report: rep}}}
	if err := inv.Check(o); err != nil {
		t.Fatalf("step-io invariant rejected the step-3 scan: %v", err)
	}
	// ...so a pass that also copies the portion out is over budget.
	rep.StepIO[2][0].Writes = 125
	err := inv.Check(o)
	if err == nil {
		t.Fatal("step-io invariant accepted a partitioning pass that rewrites the portion")
	}
	if !strings.Contains(err.Error(), "3:partitioning") {
		t.Fatalf("violation does not name the step: %v", err)
	}
	// On 64-key blocks one probe (a seek and a block) prices below a scan
	// of l_i/B = 256 blocks: the pivot's rank costs one read, and the scan
	// step 3 used to do is over budget.  Regular sampling reads nothing in
	// step 2, so a step 2 that reads the portion is over budget too.
	big := make([]hetsort.Key, 32768)
	pcfg := hetsort.Config{Nodes: 2, BlockKeys: 64, MemoryKeys: 1024, Tapes: 6}
	prep := &hetsort.Report{PartitionSizes: []int64{16384, 16384}}
	prep.StepIO[2] = []pdm.IOStats{{Reads: 1, Seeks: 1}, {Reads: 1, Seeks: 1}}
	po := &Outcome{Case: &Case{Name: "probe", Keys: big, Config: pcfg},
		Runs: []Run{{Label: "base", Config: pcfg, Output: big, Report: prep}}}
	if err := inv.Check(po); err != nil {
		t.Fatalf("step-io invariant rejected a one-probe step 3: %v", err)
	}
	for _, s := range []int{1, 2} {
		prep.StepIO[s] = []pdm.IOStats{{Reads: 256}, {Reads: 256}}
		if err := inv.Check(po); err == nil || !strings.Contains(err.Error(), stepName(s)) {
			t.Fatalf("step-io invariant accepted a scan in step %s: %v", stepName(s), err)
		}
		prep.StepIO[s] = nil
	}
	// A fused run's step 5 only commits, so re-reading the final inputs
	// there — what the fallback's merge does — is over budget; the same
	// I/O passes once the final round no longer fits M.
	prep.StepIO[4] = []pdm.IOStats{{Reads: 256, Writes: 256}, {Reads: 256, Writes: 256}}
	po.Runs[0].Config.MessageKeys = 256 // (256+64)·1 + 2·64 ≤ 1024: fused
	if err := inv.Check(po); err == nil || !strings.Contains(err.Error(), stepName(4)) {
		t.Fatalf("step-io invariant accepted a fused run that merges again in step 5: %v", err)
	}
	po.Runs[0].Config.MessageKeys = 1024 // (1024+64)·1 + 2·64 > 1024: the fallback
	if err := inv.Check(po); err != nil {
		t.Fatalf("step-io invariant rejected the fallback's step-5 merge: %v", err)
	}
	// Resumed runs are exempt: recovery redoes committed work.
	o.Runs[0].Resumed = true
	if err := inv.Check(o); err != nil {
		t.Fatalf("step-io invariant applied to a resumed run: %v", err)
	}
	// Hierarchical runs are exempt too: multi-round redistribution
	// legitimately spends extra disk passes over the received data.
	o.Runs[0].Resumed = false
	o.Runs[0].Config.Topology = hetsort.TopologyTree
	if err := inv.Check(o); err != nil {
		t.Fatalf("step-io invariant applied to a hierarchical run: %v", err)
	}
}

// TestTopologyVariants checks the topology equivalence axis: a flat base
// fans out across tree radixes and the grid, a hierarchical base gets
// the flat reference run, and runsPerCase stays in sync with Execute.
func TestTopologyVariants(t *testing.T) {
	keys := make([]hetsort.Key, 900)
	for i := range keys {
		keys[i] = hetsort.Key(2654435761 * uint32(i))
	}
	cfg := hetsort.Config{Perf: []int{1, 1, 4, 4}}
	smallMachine(&cfg)
	c := &Case{Name: "topo", Keys: keys, Config: cfg}

	o := Execute(c, RunOptions{})
	labels := map[string]bool{}
	for i := range o.Runs {
		if o.Runs[i].Err != nil {
			t.Fatalf("run %q: %v", o.Runs[i].Label, o.Runs[i].Err)
		}
		labels[o.Runs[i].Label] = true
	}
	for _, want := range []string{"tree/r2", "grid", "tree/r4", "tree/r16"} {
		if !labels[want] {
			t.Errorf("flat base missing topology variant %q", want)
		}
	}
	if got, want := len(o.Runs), runsPerCase(c, RunOptions{}); got != want {
		t.Errorf("Execute produced %d runs, runsPerCase predicts %d", got, want)
	}
	if err := invariantByName(t, "equivalence").Check(o); err != nil {
		t.Errorf("topology equivalence violated: %v", err)
	}

	quick := RunOptions{QuickTopology: true}
	oq := Execute(c, quick)
	if got, want := len(oq.Runs), runsPerCase(c, quick); got != want {
		t.Errorf("quick Execute produced %d runs, runsPerCase predicts %d", got, want)
	}

	hc := &Case{Name: "topo-tree", Keys: keys, Config: cfg}
	hc.Config.Topology = hetsort.TopologyTree
	hc.Config.Radix = 2
	oh := Execute(hc, RunOptions{})
	flat := false
	for i := range oh.Runs {
		if oh.Runs[i].Err != nil {
			t.Fatalf("run %q: %v", oh.Runs[i].Label, oh.Runs[i].Err)
		}
		if oh.Runs[i].Label == "flat" {
			flat = true
		}
	}
	if !flat {
		t.Error("hierarchical base did not get a flat reference run")
	}
	if got, want := len(oh.Runs), runsPerCase(hc, RunOptions{}); got != want {
		t.Errorf("Execute produced %d runs for tree base, runsPerCase predicts %d", got, want)
	}
	if err := invariantByName(t, "equivalence").Check(oh); err != nil {
		t.Errorf("flat reference diverged from tree base: %v", err)
	}
}

func TestAttributionInvariantTeeth(t *testing.T) {
	inv := invariantByName(t, "attribution")
	rep := &hetsort.Report{
		NodeClocks:    []float64{10},
		NodeBreakdown: []hetsort.TimeBreakdown{{Compute: 4, Disk: 4, Idle: 1}}, // sums to 9, clock 10
	}
	o := &Outcome{
		Case: &Case{Name: "synthetic"},
		Runs: []Run{{Label: "base", Report: rep}},
	}
	if err := inv.Check(o); err == nil {
		t.Fatal("attribution invariant accepted a 1s hole in the clock")
	}
	rep.NodeBreakdown[0].Network = 1
	if err := inv.Check(o); err != nil {
		t.Fatalf("attribution invariant rejected an exact attribution: %v", err)
	}
	rep.NodeBreakdown[0] = hetsort.TimeBreakdown{Compute: 11, Idle: -1}
	if err := inv.Check(o); err == nil {
		t.Fatal("attribution invariant accepted negative idle time")
	}
}

func TestGenerateCaseDeterministic(t *testing.T) {
	a := GenerateCase(42, false)
	b := GenerateCase(42, false)
	if a.Name != b.Name || len(a.Keys) != len(b.Keys) {
		t.Fatalf("same seed produced different cases: %q (%d keys) vs %q (%d keys)",
			a.Name, len(a.Keys), b.Name, len(b.Keys))
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			t.Fatalf("same seed produced different keys at %d", i)
		}
	}
	// Config contains slices; compare the rendered literal instead.
	if configLiteral(a.Config) != configLiteral(b.Config) {
		t.Fatalf("same seed produced different configs:\n%s\n%s",
			configLiteral(a.Config), configLiteral(b.Config))
	}
}

func TestCrashResumeVariant(t *testing.T) {
	keys := make([]hetsort.Key, 3000)
	for i := range keys {
		keys[i] = hetsort.Key(2654435761 * uint32(i))
	}
	c := &Case{
		Name: "crash-resume",
		Seed: 7,
		Keys: keys,
		Config: hetsort.Config{
			Perf: []int{1, 2}, BlockKeys: 16, MemoryKeys: 512, Tapes: 4, MessageKeys: 64,
		},
	}
	o := Execute(c, RunOptions{Scratch: t.TempDir()})
	var crash *Run
	for i := range o.Runs {
		if o.Runs[i].Resumed {
			crash = &o.Runs[i]
		}
	}
	if crash == nil {
		t.Fatal("no crash/resume run executed despite a scratch directory")
	}
	if crash.Err != nil {
		t.Fatalf("crash/resume run failed: %v", crash.Err)
	}
	if !equalKeys(crash.Output, o.Runs[0].Output) {
		t.Fatalf("resumed output differs from base at index %d", firstDiff(crash.Output, o.Runs[0].Output))
	}
}

func TestShrinkProducesMinimalRepro(t *testing.T) {
	// A config-level bug: Loads below 1 is rejected at cluster
	// construction, so every run errors.  The shrinker should strip all
	// keys (the failure does not depend on them) and keep the Loads
	// axis (zeroing it makes the case pass).
	keys := make([]hetsort.Key, 64)
	for i := range keys {
		keys[i] = hetsort.Key(i * 3)
	}
	c := &Case{
		Name: "bad-loads",
		Keys: keys,
		Config: hetsort.Config{
			Nodes: 2, Loads: []float64{0.5, 1.0},
			BlockKeys: 16, MemoryKeys: 256, Tapes: 4,
			// Irrelevant axes the shrinker should drop.
			Overlap:  true,
			Topology: hetsort.TopologyTree, Radix: 2,
		},
	}
	fails := Check(c, RunOptions{}, "error")
	if len(fails) == 0 {
		t.Fatal("invalid Loads did not fail the error invariant")
	}
	shrunk := Shrink(c, "error", RunOptions{}, 0)
	if len(shrunk.Keys) != 0 {
		t.Errorf("shrinker kept %d keys for a key-independent failure", len(shrunk.Keys))
	}
	if shrunk.Config.Loads == nil {
		t.Error("shrinker dropped the Loads axis that causes the failure")
	}
	if shrunk.Config.Overlap {
		t.Error("shrinker kept the irrelevant Overlap axis")
	}
	if shrunk.Config.Topology != "" || shrunk.Config.Radix != 0 {
		t.Errorf("shrinker kept the irrelevant topology axes (%q, r=%d)",
			shrunk.Config.Topology, shrunk.Config.Radix)
	}
	if re := Check(shrunk, RunOptions{}, "error"); len(re) == 0 {
		t.Fatal("shrunk case no longer fails")
	}
	repro := Repro(shrunk, "error", fails[0].Err)
	for _, want := range []string{"check.Recheck", "Loads:", "\"error\""} {
		if !strings.Contains(repro, want) {
			t.Errorf("repro missing %q:\n%s", want, repro)
		}
	}
}

func TestCornerCasesPass(t *testing.T) {
	for _, c := range CornerCases(true) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			for _, f := range Check(c, RunOptions{}, "") {
				t.Error(f)
			}
		})
	}
}
