package check

import (
	"fmt"
	"strings"

	"hetsort"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/progress"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// Invariant is one machine-checked contract evaluated against every
// harness outcome.
type Invariant struct {
	// Name is the stable identifier (-invariant filters match on it).
	Name string
	// Doc is the one-line contract statement.
	Doc string
	// Applies reports whether the invariant is meaningful for the case
	// (nil = always).  Non-applicable invariants are skipped, not
	// counted as passes.
	Applies func(*Case) bool
	// Check evaluates the invariant over the outcome.
	Check func(*Outcome) error
}

// ioSlack is the additive margin (in block transfers) every step budget
// grants for partial tail blocks, tape bookkeeping and collective
// metadata.  It keeps the budgets meaningful — a step that regresses to
// an extra pass over the data blows through it immediately — without
// flagging legitimate rounding.
const ioSlack = 48

// Registry returns the full invariant registry in evaluation order.
func Registry() []Invariant {
	return []Invariant{
		{
			Name: "error",
			Doc:  "every run of the case completes without error",
			Check: func(o *Outcome) error {
				for i := range o.Runs {
					if err := o.Runs[i].Err; err != nil {
						return fmt.Errorf("run %q: %w", o.Runs[i].Label, err)
					}
				}
				return nil
			},
		},
		{
			Name:  "sorted",
			Doc:   "every run's output is non-decreasing",
			Check: eachRun(checkSorted),
		},
		{
			Name:  "permutation",
			Doc:   "every run's output is a permutation of the input (multiset checksum)",
			Check: eachRun(checkPermutation),
		},
		{
			Name: "equivalence",
			Doc:  "fused or unfused steps 4+5, Overlap, Topology, Disks and checkpoint/crash-resume are execution strategies: all runs produce byte-identical output",
			Check: func(o *Outcome) error {
				base := &o.Runs[0]
				if base.Err != nil {
					return nil // the error invariant reports it
				}
				for i := 1; i < len(o.Runs); i++ {
					r := &o.Runs[i]
					if r.Err != nil {
						continue
					}
					if !equalKeys(base.Output, r.Output) {
						return fmt.Errorf("run %q output differs from %q: lengths %d vs %d, first diff at %d",
							r.Label, base.Label, len(r.Output), len(base.Output), firstDiff(base.Output, r.Output))
					}
				}
				return nil
			},
		},
		{
			Name:    "disk",
			Doc:     "the PDM D parameter is timing-only: per-disk counters sum exactly to the node counters, DiskIO is absent at D <= 1, and the disks axis leaves every node's block transfers and seeks unchanged",
			Applies: appliesPSRS,
			Check:   checkDisk,
		},
		{
			Name:    "balance",
			Doc:     "Theorem 1: with regular sampling, node i's final partition holds at most 2*share_i keys (+ the worst duplicate multiplicity, which ties route to one node)",
			Applies: appliesBalance,
			Check:   eachRun(checkBalance),
		},
		{
			Name:    "hist-balance",
			Doc:     "histogram refinement: node i's final partition holds at most share_i + 2*(tol + maxdup) + p keys — a tighter band than Theorem 1's 2*share_i regular-sampling bound",
			Applies: appliesHistBalance,
			Check:   eachRun(checkHistBalance),
		},
		{
			Name:    "step-io",
			Doc:     "each Algorithm-1 step stays within its PDM block-I/O budget (DESIGN.md step bounds, with a fixed documented slack): step 2 reads nothing under regular or random sampling, and a rank query — a histogram round, step 3's cuts — reads one block per query where probing prices below a scan",
			Applies: appliesPSRS,
			Check:   eachRun(checkStepIO),
		},
		{
			Name:  "attribution",
			Doc:   "per node, compute+disk+network+idle virtual time sums exactly to the clock, and no category is negative",
			Check: eachRun(checkAttribution),
		},
		{
			Name:    "progress",
			Doc:     "live snapshots are monotone (seq strictly increasing, run generation non-decreasing, per-node clock and per-step I/O cells non-decreasing within a generation) and the final snapshot reconciles exactly with the report's PDM counters",
			Applies: appliesPSRS, // the DeWitt baseline executor never binds a tracker
			Check:   eachRun(checkProgress),
		},
	}
}

// Select returns the invariants whose names match the comma-separated
// filter (substring match; empty selects all).
func Select(filter string) []Invariant {
	all := Registry()
	filter = strings.TrimSpace(filter)
	if filter == "" {
		return all
	}
	var toks []string
	for _, t := range strings.Split(filter, ",") {
		if t = strings.TrimSpace(t); t != "" {
			toks = append(toks, t)
		}
	}
	var out []Invariant
	for _, inv := range all {
		for _, t := range toks {
			if strings.Contains(inv.Name, t) {
				out = append(out, inv)
				break
			}
		}
	}
	return out
}

// eachRun lifts a per-run check over all non-errored runs of an
// outcome, labelling failures with the run.
func eachRun(check func(*Case, *Run) error) func(*Outcome) error {
	return func(o *Outcome) error {
		for i := range o.Runs {
			r := &o.Runs[i]
			if r.Err != nil {
				continue
			}
			if err := check(o.Case, r); err != nil {
				return fmt.Errorf("run %q: %w", r.Label, err)
			}
		}
		return nil
	}
}

func checkSorted(_ *Case, r *Run) error {
	for i := 1; i < len(r.Output); i++ {
		if r.Output[i] < r.Output[i-1] {
			return fmt.Errorf("output[%d]=%d < output[%d]=%d", i, r.Output[i], i-1, r.Output[i-1])
		}
	}
	return nil
}

func checkPermutation(c *Case, r *Run) error {
	if len(r.Output) != len(c.Keys) {
		return fmt.Errorf("output has %d keys, input %d", len(r.Output), len(c.Keys))
	}
	want := record.ChecksumOf(c.Keys)
	got := record.ChecksumOf(r.Output)
	if !got.Equal(want) {
		return fmt.Errorf("output %v is not a permutation of input %v", got, want)
	}
	return nil
}

// appliesPSRS gates invariants that presume Algorithm 1's structure.
func appliesPSRS(c *Case) bool {
	return c.Config.Algorithm == "" || c.Config.Algorithm == hetsort.AlgorithmExternalPSRS
}

// appliesBalance gates the Theorem-1 bound to its hypotheses: external
// PSRS with the regular-sampling pivot rule, on portions large enough
// for the regular sample spacing to exist on every node (the paper's
// operating regime; tiny portions fall back to exhaustive sampling,
// where the bound is trivially tighter but the shares round away).
func appliesBalance(c *Case) bool {
	if !appliesPSRS(c) {
		return false
	}
	if s := c.Config.PivotStrategy; s != "" && s != hetsort.PivotRegularSampling {
		return false
	}
	v := vectorOf(c.Config)
	shares := v.Shares(int64(len(c.Keys)))
	for i, s := range shares {
		if s/(int64(v[i])*int64(len(v))) < 1 {
			return false
		}
	}
	return true
}

func checkBalance(c *Case, r *Run) error {
	if r.Report == nil {
		return nil
	}
	v := vectorOf(r.Config)
	shares := v.Shares(int64(len(c.Keys)))
	mult := maxMultiplicity(c.Keys)
	for i, got := range r.Report.PartitionSizes {
		bound := 2*shares[i] + mult
		if got > bound {
			return fmt.Errorf("node %d holds %d keys > 2*share(%d)+maxdup(%d)=%d (Theorem 1 violated)",
				i, got, shares[i], mult, bound)
		}
	}
	return nil
}

// appliesHistBalance gates the refinement bound to the histogram pivot
// strategy.  Unlike Theorem 1 it needs no minimum portion size: the
// rank histograms are exact regardless of how the keys are spread, so
// the bound holds down to degenerate inputs.
func appliesHistBalance(c *Case) bool {
	return appliesPSRS(c) && c.Config.PivotStrategy == hetsort.PivotHistogram
}

// checkHistBalance verifies the refinement contract: every pivot's
// global rank ends within tol of its cumulative share target (or, on a
// duplicate plateau, within the worst multiplicity of it), so node i's
// partition — the difference of two adjacent ranks — stays within
// share_i + 2*(tol + maxdup), plus p for the largest-remainder
// rounding of the targets themselves.
func checkHistBalance(c *Case, r *Run) error {
	if r.Report == nil {
		return nil
	}
	v := vectorOf(r.Config)
	shares := v.Shares(int64(len(c.Keys)))
	minShare := int64(0)
	for i, s := range shares {
		if i == 0 || s < minShare {
			minShare = s
		}
	}
	htol := r.Config.HistTolerance
	if htol == 0 {
		htol = 0.05 // extsort's applyDefaults value
	}
	tol := int64(htol * float64(minShare))
	if tol < 1 {
		tol = 1
	}
	mult := maxMultiplicity(c.Keys)
	for i, got := range r.Report.PartitionSizes {
		bound := shares[i] + 2*(tol+mult) + int64(len(v))
		if got > bound {
			return fmt.Errorf("node %d holds %d keys > share(%d)+2*(tol(%d)+maxdup(%d))+p(%d)=%d (histogram refinement bound violated)",
				i, got, shares[i], tol, mult, len(v), bound)
		}
	}
	return nil
}

// checkStepIO verifies each node's per-step PDM block transfers against
// the DESIGN.md budgets.  Resumed runs are exempt: recovery legitimately
// redoes committed work.  Hierarchical-topology runs are exempt too: the
// budgets restate flat Algorithm 1, and multi-round redistribution
// deliberately trades ceil(log_r p)-1 extra disk passes over the
// received data for O(r) fan-in (DESIGN.md §10).
func checkStepIO(c *Case, r *Run) error {
	if r.Report == nil || r.Resumed || !flatTopology(r.Config) {
		return nil
	}
	cfg := withDefaults(r.Config)
	v := vectorOf(cfg)
	p := len(v)
	n := int64(len(c.Keys))
	shares := v.Shares(n)
	pp := pdm.Params{N: maxInt64(n, 1), M: int64(cfg.MemoryKeys), B: int64(cfg.BlockKeys), D: 1, P: int64(p)}
	for i := 0; i < p; i++ {
		li, qi := shares[i], r.Report.PartitionSizes[i]
		budgets := stepBudgets(pp, cfg, p, li, qi, r.Report.PivotRounds)
		for s := 0; s < 5; s++ {
			if len(r.Report.StepIO[s]) <= i {
				continue
			}
			got := r.Report.StepIO[s][i].Total()
			if got > budgets[s] {
				return fmt.Errorf("node %d step %s: %d block transfers exceed budget %d (l_i=%d q_i=%d B=%d M=%d T=%d)",
					i, stepName(s), got, budgets[s], li, qi, cfg.BlockKeys, cfg.MemoryKeys, cfg.Tapes)
			}
		}
	}
	return nil
}

// stepBudgets computes the five per-step block-transfer budgets for one
// node holding l_i input keys and ending with q_i keys.  They restate
// the paper's step costs (DESIGN.md §1) in checkable form:
//
//	step 1  2·(l_i/B)·(1+passes)      polyphase sort of the portion
//	step 2  0 / l_i/B / rounds·r(p−1) regular or random / sketch / histogram
//	step 3  r(p−1)                    the p−1 pivots' ranks
//	step 4  l_i/B + q_i/B + 2p        read what is sent, write what lands
//	step 5  merge budget of q_i       p-file external merge (0 if fused)
//
// each plus ioSlack.  r(p−1), what p−1 rank queries read, is p−1 blocks
// (and as many seeks, not counted) where p−1 probes price below a scan on
// the default cost model and the fences fit in M − T·B, else the scan's
// l_i/B.  A node fuses steps 4 and 5 exactly when its p−1 incoming
// streams' message buffers and tee blocks fit in M beside two more
// blocks, (msg+B)·(p−1)+2B ≤ M — extsort's rule for the flat final round.
// Unfused, step 4 reads the l_i − s_ii keys it sends and writes the
// q_i − s_ii it receives (the own bucket s_ii stays on disk); fused, it
// reads all of l_i and writes the q_i output, plus, under Checkpoint, the
// incoming streams' spill, one more q_i/B, and step 5 only commits.
// Polyphase passes are bounded with fan-in 2 — the loosest tape count —
// so the budget is valid for every Tapes setting.  rounds is PivotRounds.
func stepBudgets(pp pdm.Params, cfg hetsort.Config, p int, li, qi int64, rounds int) [5]int64 {
	lb := ceilDiv(li, pp.B)
	qb := ceilDiv(qi, pp.B)
	runs := ceilDiv(maxInt64(li, 1), int64(cfg.MemoryKeys))
	passes := pdm.LogCeil(runs, 2)
	cm, ranks := vtime.DefaultCostModel(), lb // r(p−1)
	block := float64(pp.B) * cm.IOBlockSecPerKey
	fit := lb+int64(p*vectorOf(cfg).Max()) <= pp.M-int64(cfg.Tapes)*pp.B // samples < p·perf_i
	if fit && float64(p-1)*(cm.SeekSec+block) < float64(lb)*block {
		ranks = int64(p - 1)
	}
	fused := int64(cfg.MessageKeys+cfg.BlockKeys)*int64(p-1)+2*pp.B <= pp.M
	var b [5]int64
	b[0] = 2*lb*(2+passes) + ioSlack
	b[1] = ioSlack // regular and random sampling: step 1 kept the samples
	switch cfg.PivotStrategy {
	case hetsort.PivotQuantileSketch:
		b[1] += lb
	case hetsort.PivotHistogram:
		b[1] += int64(rounds) * ranks
	}
	b[2] = ranks + ioSlack
	b[3] = lb + qb + int64(2*p) + ioSlack
	b[4] = ioSlack
	switch {
	case fused && cfg.Checkpoint.Enabled:
		b[3] += qb
	case !fused:
		b[4] += pp.MergeIOs(qi, int64(p), int64(cfg.Tapes))
	}
	return b
}

// checkDisk verifies the multi-disk accounting contract on every run
// (per-disk counters sum to the node counters; no per-disk view at
// D <= 1) and, across runs, that the "disks/*" equivalence variants
// moved exactly the same blocks as the base run — D changes when I/O
// happens, never how much of it.
func checkDisk(o *Outcome) error {
	for i := range o.Runs {
		r := &o.Runs[i]
		if r.Err != nil || r.Report == nil {
			continue
		}
		if r.Config.Disks <= 1 {
			if r.Report.DiskIO != nil {
				return fmt.Errorf("run %q: Report.DiskIO populated at D=1", r.Label)
			}
			continue
		}
		if len(r.Report.DiskIO) != len(r.Report.NodeIO) {
			return fmt.Errorf("run %q: DiskIO covers %d nodes, report has %d",
				r.Label, len(r.Report.DiskIO), len(r.Report.NodeIO))
		}
		for n, dio := range r.Report.DiskIO {
			if len(dio) != r.Config.Disks {
				return fmt.Errorf("run %q: node %d has %d disk entries, want %d",
					r.Label, n, len(dio), r.Config.Disks)
			}
			var sum pdm.IOStats
			for _, s := range dio {
				sum = sum.Add(s)
			}
			if sum != r.Report.NodeIO[n] {
				return fmt.Errorf("run %q: node %d per-disk sum %+v != node counters %+v",
					r.Label, n, sum, r.Report.NodeIO[n])
			}
		}
	}
	base := &o.Runs[0]
	if base.Err != nil || base.Report == nil {
		return nil
	}
	for i := 1; i < len(o.Runs); i++ {
		r := &o.Runs[i]
		if r.Err != nil || r.Report == nil || !strings.HasPrefix(r.Label, "disks/") {
			continue
		}
		if len(r.Report.NodeIO) != len(base.Report.NodeIO) {
			return fmt.Errorf("run %q: %d nodes, base has %d",
				r.Label, len(r.Report.NodeIO), len(base.Report.NodeIO))
		}
		for n := range r.Report.NodeIO {
			if r.Report.NodeIO[n] != base.Report.NodeIO[n] {
				return fmt.Errorf("run %q: node %d PDM I/O %+v differs from base %+v (D must be timing-only)",
					r.Label, n, r.Report.NodeIO[n], base.Report.NodeIO[n])
			}
		}
	}
	return nil
}

func checkAttribution(_ *Case, r *Run) error {
	if r.Report == nil {
		return nil
	}
	for i, tb := range r.Report.NodeBreakdown {
		b := vtime.Breakdown{Compute: tb.Compute, Disk: tb.Disk, Network: tb.Network,
			Idle: tb.Idle, Overlapped: tb.Overlapped}
		if err := b.Validate(); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if err := vtime.CheckAttribution(r.Report.NodeClocks[i], b); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	for s := range r.Report.StepBreakdown {
		for i, tb := range r.Report.StepBreakdown[s] {
			b := vtime.Breakdown{Compute: tb.Compute, Disk: tb.Disk, Network: tb.Network,
				Idle: tb.Idle, Overlapped: tb.Overlapped}
			if err := b.Validate(); err != nil {
				return fmt.Errorf("node %d step %s: %w", i, stepName(s), err)
			}
		}
	}
	return nil
}

// checkProgress validates the sampler's snapshot stream: sequence
// numbers strictly increase (also across a crash-resume boundary), the
// run generation never goes backwards, and within one generation each
// node's clock and per-step I/O cells are monotone non-decreasing —
// the counters are cumulative atomics, so any decrease means a sampler
// read tore or a reset leaked into a live run.  The final snapshot
// must be marked done and its per-node I/O must equal the report's
// PDM counters exactly (post-run verification reads are deliberately
// not charged, so the figures reconcile to the block).
func checkProgress(_ *Case, r *Run) error {
	if r.FinalProgress == nil {
		return fmt.Errorf("no final progress snapshot recorded")
	}
	var prev *progress.Snapshot
	for _, s := range r.Progress {
		for i := range s.Nodes {
			np := &s.Nodes[i]
			var sum pdm.IOStats
			for _, cell := range np.StepIO {
				sum = sum.Add(cell)
			}
			if sum != np.IO {
				return fmt.Errorf("seq %d node %d: IO %+v != sum of step cells %+v", s.Seq, i, np.IO, sum)
			}
		}
		if prev != nil {
			if s.Seq <= prev.Seq {
				return fmt.Errorf("seq %d follows %d: not strictly increasing", s.Seq, prev.Seq)
			}
			if s.Run < prev.Run {
				return fmt.Errorf("run generation went backwards: %d after %d (seq %d)", s.Run, prev.Run, s.Seq)
			}
			if s.Run == prev.Run && len(s.Nodes) == len(prev.Nodes) {
				for i := range s.Nodes {
					a, b := &prev.Nodes[i], &s.Nodes[i]
					if b.Clock < a.Clock {
						return fmt.Errorf("node %d clock decreased %.9f -> %.9f (seq %d -> %d)",
							i, a.Clock, b.Clock, prev.Seq, s.Seq)
					}
					for ph := range b.StepIO {
						x, y := a.StepIO[ph], b.StepIO[ph]
						if y.Reads < x.Reads || y.Writes < x.Writes || y.Seeks < x.Seeks {
							return fmt.Errorf("node %d step %s I/O cell decreased %+v -> %+v (seq %d -> %d)",
								i, progress.StepName(ph), x, y, prev.Seq, s.Seq)
						}
					}
				}
			}
		}
		prev = s
	}
	f := r.FinalProgress
	if !f.Done {
		return fmt.Errorf("final snapshot (seq %d) not marked done", f.Seq)
	}
	if r.Report == nil {
		return nil
	}
	if len(f.Nodes) != len(r.Report.NodeIO) {
		return fmt.Errorf("final snapshot has %d nodes, report %d", len(f.Nodes), len(r.Report.NodeIO))
	}
	for i := range f.Nodes {
		if f.Nodes[i].IO != r.Report.NodeIO[i] {
			return fmt.Errorf("node %d: final snapshot IO %+v != report PDM counters %+v",
				i, f.Nodes[i].IO, r.Report.NodeIO[i])
		}
	}
	return nil
}

// vectorOf resolves a config's perf vector the way hetsort.Sort does.
func vectorOf(cfg hetsort.Config) perf.Vector {
	if len(cfg.Perf) > 0 {
		return perf.Vector(cfg.Perf)
	}
	n := cfg.Nodes
	if n <= 0 {
		n = 4
	}
	return perf.Homogeneous(n)
}

// withDefaults fills the machine parameters the way extsort does.
func withDefaults(cfg hetsort.Config) hetsort.Config {
	if cfg.BlockKeys <= 0 {
		cfg.BlockKeys = 2048
	}
	if cfg.MemoryKeys <= 0 {
		cfg.MemoryKeys = 1 << 16
	}
	if cfg.Tapes <= 0 {
		cfg.Tapes = 15
	}
	if cfg.MessageKeys <= 0 {
		cfg.MessageKeys = 8192
	}
	return cfg
}

// maxMultiplicity returns the count of the most frequent key (0 for an
// empty input).  Keys equal to a pivot all land in one partition, so the
// Theorem-1 bound relaxes by exactly this much under duplicates (the
// paper's §3.1 duplicates discussion).
func maxMultiplicity(keys []hetsort.Key) int64 {
	if len(keys) == 0 {
		return 0
	}
	counts := make(map[hetsort.Key]int64, len(keys))
	var most int64
	for _, k := range keys {
		counts[k]++
		if counts[k] > most {
			most = counts[k]
		}
	}
	return most
}

// stepName labels step s (0-based): pdm's phase s+1.
func stepName(s int) string { return pdm.PhaseNames[s+1] }

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
