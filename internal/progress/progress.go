// Package progress provides live, non-perturbing introspection of a
// running sort.  A Tracker is handed to the executor (extsort binds it
// to the cluster at the top of every run) and can then be sampled from
// any goroutine: snapshots read only atomically published state — each
// node's live clock, its pdm phase counters, and the current
// Algorithm-1 step — so sampling never takes a simulation lock and
// never perturbs virtual-time attribution.
//
// The package also houses the post-run straggler analytics (see
// straggler.go), which compare each node's observed throughput against
// its declared perf entry and its partition against the Theorem-1
// balance expectation.
package progress

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"hetsort/internal/cluster"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
)

// StepName returns the label for a pdm phase (0 = setup/checkpoint,
// 1..5 = Algorithm-1 steps).
func StepName(phase int) string {
	if phase < 0 || phase >= pdm.PhaseCount {
		return fmt.Sprintf("%d:?", phase)
	}
	return pdm.PhaseNames[phase]
}

// Tracker samples progress from a running cluster.  Create one, set it
// on the sort configuration, and call Snapshot from any goroutine while
// the sort runs (and after it finishes, for the settled totals).  The
// zero state before the executor binds it yields nil snapshots.
type Tracker struct {
	mu        sync.Mutex
	c         *cluster.Cluster
	shares    []int64
	totalKeys int64
	blockKeys int

	seq  atomic.Int64
	run  atomic.Int64
	done atomic.Bool
}

// NewTracker returns an unbound tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Bind attaches the tracker to a cluster about to execute Algorithm 1.
// The executor calls it at the top of every run, including the re-run
// behind Resume: rebinding bumps the run generation and keeps the
// snapshot sequence, so sequence numbers stay monotonic across a resume
// boundary while the per-run I/O cells restart with the cluster's
// counters (committed phases are skipped on resume, never re-counted).
func (t *Tracker) Bind(c *cluster.Cluster, v perf.Vector, totalKeys int64, blockKeys int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c = c
	t.shares = v.Shares(totalKeys)
	t.totalKeys = totalKeys
	t.blockKeys = blockKeys
	t.run.Add(1)
	t.done.Store(false)
}

// MarkDone records that the bound run completed; subsequent snapshots
// report Done with Fraction 1 and ETA 0.
func (t *Tracker) MarkDone() { t.done.Store(true) }

// Done reports whether the bound run completed.
func (t *Tracker) Done() bool { return t.done.Load() }

// NodeProgress is one node's slice of a Snapshot.
type NodeProgress struct {
	Node     int    `json:"node"`
	Step     int    `json:"step"` // 0 = setup/between steps, 1..5 = Algorithm-1 step
	StepName string `json:"step_name"`
	// Clock is the node's virtual time as last published by its own
	// goroutine; it may trail the true clock by one in-flight charge.
	Clock float64 `json:"clock_vsec"`
	// IO sums the per-step cells below (always internally consistent:
	// both come from the same per-phase atomics).
	IO     pdm.IOStats                 `json:"io"`
	StepIO [pdm.PhaseCount]pdm.IOStats `json:"step_io"`
	// KeysMoved converts the node's block transfers to keys; Expected
	// is its perf share of the cluster-wide figure, so Skew =
	// KeysMoved/ExpectedKeys reads 1.0 when reality tracks the model.
	KeysMoved    int64   `json:"keys_moved"`
	ExpectedKeys int64   `json:"expected_keys"`
	Skew         float64 `json:"skew"`
	// Fraction estimates how much of the node's modelled total I/O is
	// done (capped at 1); ETA projects the remaining virtual seconds
	// from the node's own average rate so far.
	Fraction float64 `json:"fraction"`
	ETA      float64 `json:"eta_vsec"`
}

// Snapshot is one observation of a run.  Seq increases by one per
// Snapshot call over the tracker's lifetime (including across Resume);
// Run is the bind generation, bumping when a resumed run rebinds.
type Snapshot struct {
	Seq       int64          `json:"seq"`
	Run       int64          `json:"run"`
	Done      bool           `json:"done"`
	Time      float64        `json:"time_vsec"` // max published node clock
	TotalKeys int64          `json:"total_keys"`
	ETA       float64        `json:"eta_vsec"` // max node ETA
	Nodes     []NodeProgress `json:"nodes"`
}

// Snapshot samples the bound cluster.  It returns nil before Bind.
// Safe to call concurrently with the run from any goroutine.
func (t *Tracker) Snapshot() *Snapshot {
	t.mu.Lock()
	c, shares, blockKeys, total := t.c, t.shares, t.blockKeys, t.totalKeys
	run := t.run.Load()
	t.mu.Unlock()
	if c == nil {
		return nil
	}
	s := &Snapshot{
		Seq:       t.seq.Add(1),
		Run:       run,
		Done:      t.done.Load(),
		TotalKeys: total,
		Nodes:     make([]NodeProgress, c.P()),
	}
	var movedTotal int64
	for i := 0; i < c.P(); i++ {
		n := c.Node(i)
		np := &s.Nodes[i]
		np.Node = i
		np.Clock = n.LiveClock()
		np.Step = n.Counter().CurrentPhase()
		np.StepName = StepName(np.Step)
		np.StepIO = n.Counter().PhaseSnapshot()
		for _, cell := range np.StepIO {
			np.IO = np.IO.Add(cell)
		}
		np.KeysMoved = np.IO.Total() * int64(blockKeys)
		movedTotal += np.KeysMoved
		if np.Clock > s.Time {
			s.Time = np.Clock
		}
	}
	for i := range s.Nodes {
		np := &s.Nodes[i]
		if total > 0 && i < len(shares) {
			np.ExpectedKeys = int64(float64(shares[i]) / float64(total) * float64(movedTotal))
		}
		if np.ExpectedKeys > 0 {
			np.Skew = float64(np.KeysMoved) / float64(np.ExpectedKeys)
		}
		var est int64
		if i < len(shares) {
			est = expectedBlocks(shares[i], blockKeys)
		}
		if s.Done {
			np.Fraction, np.ETA = 1, 0
		} else if est > 0 {
			f := float64(np.IO.Total()) / float64(est)
			if f > 1 {
				f = 1
			}
			np.Fraction = f
			if f > 0 && f < 1 {
				np.ETA = np.Clock * (1 - f) / f
			}
		}
		if np.ETA > s.ETA {
			s.ETA = np.ETA
		}
	}
	return s
}

// expectedBlocks is the perf-model estimate of a node's total accounted
// block transfers across Algorithm 1: run formation streams the
// l_i-key portion through disk twice (4·l/B transfers), locating the
// cuts probes a block per pivot (≈0), redistribution reads the portion's
// buckets (l/B) and its fused final merge writes the q-key output (≈l/B
// at perfect balance), and step 5 moves nothing — ≈6·l/B.  The constant
// is the same for every node, so Fraction is comparable across nodes;
// hierarchical, unfused (the final round does not fit memory) and
// small-block runs (which scan for the cuts) shift the true total a
// little, which only skews the advisory ETA.
func expectedBlocks(share int64, blockKeys int) int64 {
	if blockKeys <= 0 {
		return 0
	}
	b := int64(blockKeys)
	return 6 * ((share + b - 1) / b)
}

// Table renders the snapshot as an aligned text table, one row per
// node — what `hetsort -progress` repaints on stderr.
func (s *Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.3fvs  seq=%d", s.Time, s.Seq)
	if s.Done {
		b.WriteString("  done")
	} else if s.ETA > 0 {
		fmt.Fprintf(&b, "  eta=%.3fvs", s.ETA)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-5s %-18s %10s %12s %12s %6s %5s\n",
		"node", "step", "clock", "keys", "expected", "skew", "done")
	for i := range s.Nodes {
		np := &s.Nodes[i]
		fmt.Fprintf(&b, "%-5d %-18s %10.3f %12d %12d %6.2f %4.0f%%\n",
			np.Node, np.StepName, np.Clock, np.KeysMoved, np.ExpectedKeys,
			np.Skew, np.Fraction*100)
	}
	return b.String()
}
