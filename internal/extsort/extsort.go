// Package extsort is the paper's primary contribution: Algorithm 1, a
// PSRS scheme for external sorting on heterogeneous clusters.  Each node
// owns a disk-resident portion sized by the perf vector; the five steps
// are
//
//  1. sequential external sort of the portion (polyphase merge sort),
//     indexing the sorted file as it writes it (sortedIndex);
//  2. regularly spaced pivot candidates (perf-proportional counts) kept
//     by the index, gathered on node 0, which picks and broadcasts p-1 pivots;
//  3. partitioning at the pivots: the p+1 cut offsets are their local
//     ranks, and bucket j is the section between cuts j and j+1 — the
//     sorted file is already in bucket order, so nothing is copied;
//  4. redistribution: bucket j travels to node j in fixed-size
//     messages (a multiple of the block size), read straight from its
//     section of the sorted file — and wherever the final round's
//     message buffers fit memory, merged in-stream with the node's own
//     bucket into its output (fusedFits);
//  5. otherwise, final merge of the node's own bucket and the received
//     sorted files with the external merge of step 1's sorter.
//
// The concatenation of the nodes' output files in rank order is the
// globally sorted sequence, and the PSRS theorem bounds every node's
// final load by twice its optimal share.
package extsort

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"hetsort/internal/checkpoint"
	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/progress"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
)

// Message tags.
const (
	tagSamples     = 200 // step 2's reduces
	tagPivots      = 201 // step 2's broadcasts
	tagBarrierBase = 300 // barriers use tagBarrierBase + 2*step
)

// Step names index the per-step metrics in Result: pdm's phases 1..5.
var StepNames = [5]string(pdm.PhaseNames[1:])

// Config parameterises Algorithm 1.
type Config struct {
	// Perf is the performance vector; data shares, sample counts and
	// pivot quantiles all follow it.  All ones = homogeneous external
	// PSRS.
	Perf perf.Vector
	// BlockKeys is the disk block size B in keys (default 2048 = 8 KiB).
	BlockKeys int
	// MemoryKeys is each node's internal memory M in keys (default 1<<16).
	MemoryKeys int
	// Tapes is the polyphase file count (default 15, the paper's
	// "15 intermediate files").
	Tapes int
	// MessageKeys is the redistribution message size in keys (default
	// 8192, the paper's best-performing 32 Kb packets).
	MessageKeys int
	// RunFormation selects the run former for step 1.
	RunFormation polyphase.RunFormation
	// Strategy selects the pivot scheme for step 2 (default
	// RegularSampling, the paper's Algorithm 1).
	Strategy Strategy
	// HistTolerance is the Histogram strategy's convergence tolerance
	// as a fraction of the smallest perf share (default 0.05): the
	// refinement stops once every pivot's global rank is within
	// HistTolerance·min_share keys of its target.
	HistTolerance float64
	// Seed feeds the random samplers of the non-regular strategies.
	Seed int64
	// Pipeline is ignored: step 4 fuses step 5 whenever the final round
	// fits memory (fusedFits).  It stays until bench/ stops setting it.
	Pipeline bool
	// Overlap charges disk I/O as asynchronous: readers are modelled as
	// prefetching ahead of the consumer and writers as flushing behind
	// it, so disk transfer time hides behind concurrent compute up to
	// the stream's in-flight depth, max(2, the node's D)
	// (vtime.OverlapMeter's windowed model).  The PDM I/O *counts* and
	// the output bytes are identical to the synchronous mode — only
	// virtual time changes — and like the cluster's DisksPerNode it is
	// an execution strategy excluded from the resume fingerprint.
	Overlap bool
	// Checkpoint makes the five phase boundaries durable commit points:
	// each node writes a manifest (see internal/checkpoint) to its
	// private FS after every phase — from phase 3 on with the cut offsets
	// of its sorted file, which stays on disk until phase 5 commits so a
	// recovered peer can be sent its bucket again — and an interrupted run
	// can be continued with Resume.
	Checkpoint bool
	// InputSum is the global input multiset checksum stamped into the
	// manifests so a resumed run can verify its final output (only
	// meaningful with Checkpoint).
	InputSum record.Checksum
	// Topology selects the communication structure for pivot
	// aggregation (step 2) and redistribution (step 4): TopologyFlat is
	// Algorithm 1 as written (star collectives, one all-to-all round);
	// TopologyTree and TopologyGrid bound every node's fan-in at O(r)
	// per round by aggregating samples up an r-ary reduction tree and
	// routing partitions through ⌈log_r p⌉ rounds of r-way exchanges (2
	// rounds for the √p×√p grid).  Unlike Overlap, the topology is an
	// outcome parameter for the QuantileSketch strategy (its sketch merge
	// is order-sensitive, so per-node partitions may differ from the flat
	// run's even though the global sorted output is identical) and the
	// phase-4 artifacts differ, so it is part of the resume fingerprint.
	Topology Topology
	// Radix is the tree fan-in r (default 4).  Flat and grid derive
	// theirs from p (p and ⌈√p⌉) and ignore this.
	Radix int
	// Merkle upgrades the final checkpoint manifest to a Merkle-anchored
	// one: each node hashes the artifacts its phase-5 manifest depends on
	// and records a Merkle root over them, so the run's outputs verify
	// against one 32-byte value (hetsortd anchors every job this way).
	// The hashing re-reads the output once, charged as phase-0 I/O.  It
	// is an execution strategy excluded from the resume fingerprint — it
	// changes no output byte.  Requires Checkpoint.
	Merkle bool
	// Progress, when set, is bound to the cluster at the start of the
	// run so other goroutines can sample live per-node, per-step
	// snapshots while Algorithm 1 executes (see internal/progress).  It
	// is a pure observation channel: sampling reads only atomics and
	// changes no virtual-time charge, no output byte, and it is excluded
	// from the resume fingerprint.  The same tracker may span Sort and a
	// later Resume; rebinding keeps its snapshot sequence monotonic.
	Progress *progress.Tracker
}

// sig fingerprints the parameters that must match between an
// interrupted run and its resume.
func (c Config) sig(inputName, outputName string) string {
	return fmt.Sprintf("extsort-v6 perf=%v B=%d M=%d T=%d msg=%d rf=%d strat=%d htol=%g seed=%d topo=%d r=%d in=%s out=%s",
		[]int(c.Perf), c.BlockKeys, c.MemoryKeys, c.Tapes, c.MessageKeys,
		c.RunFormation, c.Strategy, c.HistTolerance, c.Seed,
		c.Topology, c.Radix, inputName, outputName)
}

// ApplyDefaults fills zero-valued fields with the paper's defaults for
// a p-node cluster (8 KiB blocks, 2^16-key memory, 15 tapes, 8K-integer
// messages, homogeneous perf).
func (c *Config) ApplyDefaults(p int) {
	if len(c.Perf) == 0 {
		c.Perf = perf.Homogeneous(p)
	}
	if c.BlockKeys <= 0 {
		c.BlockKeys = 2048
	}
	if c.MemoryKeys <= 0 {
		c.MemoryKeys = 1 << 16
	}
	if c.Tapes <= 0 {
		c.Tapes = 15
	}
	if c.MessageKeys <= 0 {
		c.MessageKeys = 8192
	}
	if c.Radix <= 0 {
		c.Radix = 4
	}
	if c.HistTolerance == 0 {
		c.HistTolerance = 0.05
	}
}

// Validate checks the configuration against cluster size p.
func (c Config) Validate(p int) error {
	if err := c.Perf.Validate(); err != nil {
		return err
	}
	if len(c.Perf) != p {
		return fmt.Errorf("extsort: perf vector length %d != cluster size %d", len(c.Perf), p)
	}
	if c.Tapes < 3 {
		return fmt.Errorf("extsort: Tapes=%d must be >= 3", c.Tapes)
	}
	if c.MemoryKeys < c.Tapes*c.BlockKeys {
		return fmt.Errorf("extsort: MemoryKeys=%d < Tapes*BlockKeys=%d", c.MemoryKeys, c.Tapes*c.BlockKeys)
	}
	if c.MessageKeys <= 0 {
		return fmt.Errorf("extsort: MessageKeys=%d must be positive", c.MessageKeys)
	}
	switch c.Topology {
	case TopologyFlat, TopologyTree, TopologyGrid:
	default:
		return fmt.Errorf("extsort: unknown topology %d", c.Topology)
	}
	// Only a tree reads Radix; flat and grid derive theirs from p.
	if c.Topology == TopologyTree && c.Radix < 2 {
		return fmt.Errorf("extsort: Radix=%d must be >= 2", c.Radix)
	}
	// Written as a negated in-range check so NaN — for which every
	// comparison is false — is rejected instead of slipping through to
	// the refiner.
	if c.HistTolerance != 0 && !(c.HistTolerance > 0 && c.HistTolerance < 1) {
		return fmt.Errorf("extsort: HistTolerance=%v must be in (0, 1)", c.HistTolerance)
	}
	// The paper recommends message sizes that are multiples of the
	// block size (step 4), but its own packet-size experiment goes down
	// to 8-integer messages, so smaller values are permitted.
	return nil
}

// Result reports one Algorithm-1 run.
type Result struct {
	// Time is the virtual makespan.
	Time float64
	// NodeClocks is each node's final clock.
	NodeClocks []float64
	// PartitionSizes is the final number of keys per node.
	PartitionSizes []int64
	// StepTimes[s] is the cluster-wide duration of step s (barrier to
	// barrier, max over nodes).
	StepTimes [5]float64
	// NodeIO is each node's total I/O.
	NodeIO []pdm.IOStats
	// DiskIO[i][d] is node i's I/O on member disk d; nil per node when
	// the node has a single disk.  Summing over d reproduces NodeIO[i].
	DiskIO [][]pdm.IOStats
	// StepIO[s][i] is node i's I/O during step s, barrier to barrier:
	// a checkpointed step's cell includes its manifest commit (one
	// write, one seek, plus step 5's Merkle hashing under Merkle).  The
	// node counter's phase cells are the view without manifests:
	// commits are charged to phase 0.
	StepIO [5][]pdm.IOStats
	// NodeAttr[i] splits node i's final clock into compute, disk,
	// network and idle-wait virtual time.  The categories sum to
	// NodeClocks[i] (vtime.CheckAttribution holds for every node).
	NodeAttr []vtime.Breakdown
	// StepAttr[s][i] is node i's attribution during step s, barrier to
	// barrier (so the barrier wait counts as the step's idle time).
	StepAttr [5][]vtime.Breakdown
	// Pivots are the broadcast pivots (diagnostics).
	Pivots []record.Key
	// PivotRounds is the number of step-2 collective rounds: 1 for the
	// one-shot strategies, the refinement round count for Histogram.
	PivotRounds int
	// PivotSampleKeys counts the key-valued samples entering the
	// step-2 collectives — the "samples shipped" axis of the
	// histogram-vs-sampling tradeoff.  Per strategy: regular/random
	// sampling count every node's sampled keys;
	// QuantileSketch counts the exported (value, weight) pairs;
	// Histogram counts the candidate splitters broadcast per round.
	// Count vectors (integer metadata, not key samples) are excluded.
	PivotSampleKeys int64
}

// SublistExpansion returns the Table-3 S(max) metric for the run: the
// worst ratio of a node's final partition to its perf-optimal share.
func (r *Result) SublistExpansion(v perf.Vector) float64 {
	e, err := sampling.WeightedExpansion(r.PartitionSizes, v)
	if err != nil {
		return 0
	}
	return e
}

// MeanPartition returns the mean final partition size over the nodes
// with the given perf value (the paper's "Mean" column reports the fast
// nodes' mean in the heterogeneous rows).
func (r *Result) MeanPartition(v perf.Vector, class int) float64 {
	var sum, cnt int64
	for i, s := range r.PartitionSizes {
		if v[i] == class {
			sum += s
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// MaxPartition returns the largest final partition among nodes of the
// given perf class.
func (r *Result) MaxPartition(v perf.Vector, class int) int64 {
	var max int64
	for i, s := range r.PartitionSizes {
		if v[i] == class && s > max {
			max = s
		}
	}
	return max
}

// Sort runs Algorithm 1.  Every node must already hold its portion in
// the file inputName on its private FS; on success every node holds its
// sorted partition in outputName.
func Sort(c *cluster.Cluster, cfg Config, inputName, outputName string) (*Result, error) {
	if err := cfg.resolve(c); err != nil {
		return nil, err
	}
	return runWorkers(c, cfg, inputName, outputName, nil)
}

// resolve readies the configuration for a run on cl: the defaults are
// filled in and the result validated.
func (c *Config) resolve(cl *cluster.Cluster) error {
	c.ApplyDefaults(cl.P())
	return c.Validate(cl.P())
}

// Resume continues an interrupted checkpointed Sort from the manifests
// on the node disks: it loads and validates every node's manifest,
// replays each node's virtual clock to its last commit, re-runs only the
// phases that did not commit (needy nodes re-receive their lost
// redistribution segments from the senders' sorted files),
// and returns the completed result together with the original run's
// input checksum for verification.  All recovery I/O is charged to the
// PDM counters.  The configuration must match the interrupted run's.
func Resume(c *cluster.Cluster, cfg Config, inputName, outputName string) (*Result, record.Checksum, error) {
	if err := cfg.resolve(c); err != nil {
		return nil, record.Checksum{}, err
	}
	cfg.Checkpoint = true // resuming implies checkpointing the rest of the run
	disks := make([]diskio.FS, c.P())
	for i := range disks {
		disks[i] = c.Node(i).FS()
	}
	plan, err := checkpoint.Plan(disks, cfg.sig(inputName, outputName))
	if err != nil {
		return nil, record.Checksum{}, err
	}
	cfg.InputSum = plan.Input
	c.ResetClocks()
	res, err := runWorkers(c, cfg, inputName, outputName, plan)
	if err != nil {
		return nil, record.Checksum{}, err
	}
	return res, plan.Input, nil
}

// runWorkers executes the five phases on every node, fresh (plan nil) or
// resuming from a recovery plan.
func runWorkers(c *cluster.Cluster, cfg Config, inputName, outputName string, plan *checkpoint.Recovery) (*Result, error) {
	p := c.P()
	res := &Result{
		NodeClocks:     make([]float64, p),
		PartitionSizes: make([]int64, p),
		NodeIO:         make([]pdm.IOStats, p),
		DiskIO:         make([][]pdm.IOStats, p),
		NodeAttr:       make([]vtime.Breakdown, p),
	}
	for s := range res.StepIO {
		res.StepIO[s] = make([]pdm.IOStats, p)
		res.StepAttr[s] = make([]vtime.Breakdown, p)
	}
	radix := resolveRadix(p, cfg.Topology, cfg.Radix)
	if cfg.Progress != nil {
		var totalKeys int64
		for i := 0; i < p; i++ {
			if li, err := diskio.CountKeys(c.Node(i).FS(), inputName); err == nil {
				totalKeys += li
			}
		}
		cfg.Progress.Bind(c, cfg.Perf, totalKeys, cfg.BlockKeys)
	}

	workers := make([]worker, p)
	levels := topoLevels(p, radix)
	err := c.Run(func(n *cluster.Node) error {
		w := &workers[n.ID()]
		*w = worker{n: n, cfg: cfg, radix: radix, input: inputName, output: outputName,
			plan: plan, sig: cfg.sig(inputName, outputName),
			lv: levels, ownRounds: ownRounds(n.ID(), levels, p)}
		return w.run()
	})
	if err != nil {
		return nil, err
	}

	for i := 0; i < p; i++ {
		res.NodeClocks[i] = c.Node(i).Clock()
		res.NodeIO[i] = c.Node(i).IOStats()
		res.DiskIO[i] = c.Node(i).DiskIO()
		res.NodeAttr[i] = c.Node(i).Attribution()
		sz, err := diskio.CountKeys(c.Node(i).FS(), outputName)
		if err != nil {
			return nil, fmt.Errorf("extsort: counting node %d output: %w", i, err)
		}
		res.PartitionSizes[i] = sz
		w := &workers[i]
		res.PivotRounds = max(res.PivotRounds, w.pivotRounds)
		res.PivotSampleKeys += w.sampleKeys
	}
	res.Time = c.MaxClock()
	res.Pivots = workers[0].pivots
	// Step durations: max end over nodes, minus max previous end.
	prev := 0.0
	for s := 0; s < 5; s++ {
		var end float64
		for i := range workers {
			res.StepIO[s][i] = workers[i].io[s]
			res.StepAttr[s][i] = workers[i].attr[s]
			if workers[i].ends[s] > end {
				end = workers[i].ends[s]
			}
		}
		res.StepTimes[s] = end - prev
		prev = end
	}
	if cfg.Progress != nil {
		cfg.Progress.MarkDone()
	}
	return res, nil
}

// worker carries one node's state through the five steps.
type worker struct {
	n      *cluster.Node
	cfg    Config
	radix  int   // the run's one fan-in (resolveRadix): collectives and redistribution
	lv     []int // the redistribution's refinement levels (topoLevels), shared read-only
	input  string
	output string

	// Checkpoint state: plan is non-nil when resuming, sig fingerprints
	// the configuration, pivots carries the agreed pivots from phase 2
	// on so every later manifest re-records them.
	plan   *checkpoint.Recovery
	sig    string
	pivots []record.Key

	// cuts is step 3's whole result: the p+1 key offsets at which the
	// pivots cut the sorted file, bucket j being keys cuts[j]..cuts[j+1].
	// Through the first ownRounds redistribution rounds the node's buckets
	// are still those sections (see bucket).
	cuts      []int64
	ownRounds int
	index     *sortedIndex // step 1's by-product (sortedIndex)

	// This node's step-2 accounting (Result.PivotRounds, PivotSampleKeys).
	pivotRounds int
	sampleKeys  int64

	// merged records that a fused step 4 — this run's or, on a resumed
	// node past phase 4, the interrupted run's — merged the output
	// in-stream.
	merged bool

	// Per-step measurements, barrier to barrier, read after the run:
	// the clock at each step's end, and the step's I/O and attribution.
	ends [5]float64
	io   [5]pdm.IOStats
	attr [5]vtime.Breakdown
}

// done returns how many phases this node had committed before the run
// (0 for a fresh run).
func (w *worker) done() int {
	if w.plan == nil {
		return 0
	}
	return w.plan.Done[w.n.ID()]
}

// commit durably records that `phase` phases are complete, listing the
// files the state depends on (only called under Checkpoint).  The
// "committed:<step>" crash point right after the save lets tests kill a
// node between its commit and the following barrier.
func (w *worker) commit(phase int, files []checkpoint.FileInfo) error {
	n := w.n
	m := &checkpoint.Manifest{
		Node:   n.ID(),
		P:      n.P(),
		Phase:  phase,
		Clock:  n.Clock(),
		Sig:    w.sig,
		Input:  w.cfg.InputSum,
		Pivots: w.pivots,
		Files:  files,
	}
	if phase == 3 || phase == 4 {
		// The phases whose state is the sorted file cut into buckets.
		m.Cuts = w.cuts
	}
	// Manifest I/O is charged to phase 0 (checkpointing is bookkeeping,
	// not an Algorithm-1 step), and its virtual latency is observed.
	step := n.Counter().CurrentPhase()
	n.SetIOPhase(0)
	start := n.Clock()
	var err error
	if w.cfg.Merkle && phase == checkpoint.Phases {
		// Anchor the finished run: hash the final manifest's artifact
		// set and bind it under one Merkle root.
		err = m.Merkleize(n.FS(), w.cfg.BlockKeys, n.Acct())
	}
	if err == nil {
		err = checkpoint.Save(n.FS(), m, n.Acct())
	}
	n.Metrics().Histogram("checkpoint.commit.vsec").Observe(n.Clock() - start)
	n.SetIOPhase(step)
	if err != nil {
		return err
	}
	label := "start"
	if phase > 0 {
		label = StepNames[phase-1]
	}
	n.TraceEvent(trace.Checkpoint, label, fmt.Sprintf("phase:%d clock:%.6f files:%d", phase, n.Clock(), len(files)))
	n.CrashPoint("committed:" + label)
	return nil
}

// step is one row of Algorithm 1's step table.  run does the step's
// work on a node that has not committed it; files lists what the
// step's manifest depends on; skip, when set, is what a resumed node
// that already committed the step still owes its peers; tidy, when set,
// removes the files the step's commit made dead — an idempotent sweep,
// so a node that crashed between its commit and its tidy re-runs it on
// resume.  The sorted file lives until step 5's tidy: its sections are
// the buckets.
type step struct {
	run   func(*worker) error
	files func(*worker) ([]checkpoint.FileInfo, error)
	skip  func(*worker) error
	tidy  func(*worker) error
}

// steps is Algorithm 1.  Only step 4 has a skip: a node past phase 4
// still re-sends its buckets to the needy receivers, which
// is exactly the recovery of their lost in-flight messages.
var steps = [len(StepNames)]step{
	{run: (*worker).sequentialSort, files: (*worker).sortedFile},
	{run: (*worker).pivotSelection, files: (*worker).sortedFile},
	{run: (*worker).locateCuts, files: (*worker).sortedFile},
	// Phase 4 keeps the sorted file — every bucket a peer's recovery may
	// ask for again — beside the final-merge inputs.
	{run: (*worker).redistribute, skip: (*worker).redistribute, files: (*worker).redistributed},
	{run: (*worker).finalMerge, files: (*worker).outputFile, tidy: (*worker).cleanup},
}

// run drives the step table on one node.  Every step is bracketed the
// same way: block I/O is attributed to the step's phase cell and the
// clock attribution delta is recorded barrier to barrier, so waiting at
// the barrier counts as the step's idle time; a fresh step runs, passes
// its crash point and commits its manifest, an already committed one is
// skipped (traced as a recovery event).
func (w *worker) run() error {
	n := w.n
	id := n.ID()
	if w.plan != nil {
		// Replay the clock to the last commit, so a resumed run reports
		// the honest virtual completion time of the whole sort.
		n.AdvanceClock(w.plan.Clocks[id])
		w.pivots, w.cuts = w.plan.Pivots, w.plan.Cuts[id]
		n.TraceEvent(trace.Recovery, "resume", fmt.Sprintf("phases-done:%d clock:%.6f", w.done(), w.plan.Clocks[id]))
	} else if w.cfg.Checkpoint {
		// Phase-0 manifest: the run exists and the input is durable.
		in, err := w.fileInfo(w.input)
		if err != nil {
			return fmt.Errorf("checkpointing input on node %d: %w", id, err)
		}
		if err := w.commit(0, in); err != nil {
			return err
		}
	}
	for s, st := range steps {
		n.SetIOPhase(s + 1)
		ioBefore, attrBefore := n.IOStats(), n.Attribution()
		endPhase := n.TracePhase(StepNames[s])
		var err error
		switch {
		case w.done() <= s:
			err = w.runStep(s, st)
		case st.skip != nil:
			err = st.skip(w)
		}
		if err == nil && st.tidy != nil {
			err = st.tidy(w)
		}
		if err != nil {
			return fmt.Errorf("step %d on node %d: %w", s+1, id, err)
		}
		if w.done() > s {
			n.TraceEvent(trace.Recovery, StepNames[s], "skipped (already committed)")
		}
		endPhase()
		if err := n.TreeBarrier(w.radix, tagBarrierBase+2*s); err != nil {
			return err
		}
		w.ends[s] = n.Clock()
		w.io[s] = n.IOStats().Sub(ioBefore)
		w.attr[s] = n.Attribution().Sub(attrBefore)
		n.SetIOPhase(0)
	}
	return nil
}

// runStep is a fresh step: the work, the crash point between work and
// commit, and the manifest.
func (w *worker) runStep(s int, st step) error {
	if err := st.run(w); err != nil {
		return err
	}
	w.n.CrashPoint(StepNames[s])
	if !w.cfg.Checkpoint {
		return nil
	}
	files, err := st.files(w)
	if err != nil {
		return err
	}
	return w.commit(s+1, files)
}

// fileInfo is the manifest entry list for the named files, sizes read
// from the disk.
func (w *worker) fileInfo(names ...string) ([]checkpoint.FileInfo, error) {
	files := make([]checkpoint.FileInfo, len(names))
	for i, name := range names {
		keys, err := diskio.CountKeys(w.n.FS(), name)
		if err != nil {
			return nil, err
		}
		files[i] = checkpoint.FileInfo{Name: name, Keys: keys}
	}
	return files, nil
}

func (w *worker) sortedFile() ([]checkpoint.FileInfo, error) { return w.fileInfo(sortedName) }
func (w *worker) outputFile() ([]checkpoint.FileInfo, error) { return w.fileInfo(w.output) }

// redistributed lists what phase 4 depends on: the sorted file, then the
// final-merge inputs that are files of their own, then — fused — the
// output, which a resumed node then keeps instead of merging again.
func (w *worker) redistributed() ([]checkpoint.FileInfo, error) {
	names := []string{sortedName}
	for _, in := range w.finalInputs() {
		if in.Name != sortedName {
			names = append(names, in.Name)
		}
	}
	if w.merged {
		names = append(names, w.output)
	}
	return w.fileInfo(names...)
}

// remove deletes an intermediate file that may already be gone.
func (w *worker) remove(name string) error {
	if err := w.n.FS().Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// cleanup is step 5's tidy: once phase 5 is committed no recovery can
// need the sorted file, the received files or the round buckets — a peer
// at phase 5 implies every node committed phase 4 (the barrier ordering
// guarantees it).  A crashed multi-round run can orphan buckets for
// destinations that were no longer needy on the retry, so the sweep
// goes by prefix, not by what this run created.
func (w *worker) cleanup() error {
	names, err := w.n.FS().Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		for _, prefix := range []string{sortedName, recvPrefix, roundPrefix} {
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			if err := w.remove(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// acct is the node's accounting for the sort's block streams: charged
// overlapped under Config.Overlap.  Point charges (sampling probes,
// manifest commits, hashing) use n.Acct() and stay synchronous.
func (w *worker) acct() diskio.Accounting {
	a := w.n.Acct()
	a.Overlap.Enabled = w.cfg.Overlap
	return a
}

func (w *worker) polyCfg(prefix string) polyphase.Config {
	acct := w.acct()
	return polyphase.Config{
		FS:           w.n.FS(),
		BlockKeys:    w.cfg.BlockKeys,
		MemoryKeys:   w.cfg.MemoryKeys,
		Tapes:        w.cfg.Tapes,
		RunFormation: w.cfg.RunFormation,
		Acct:         acct,
		Overlap:      acct.Overlap,
		TempPrefix:   prefix,
	}
}

// sequentialSort implements step 1, indexing the sorted file as written.
func (w *worker) sequentialSort() (err error) {
	if w.index, err = w.newIndex(w.input); err == nil {
		_, err = polyphase.SortObserved(w.polyCfg("hetsort.s1."), w.input, sortedName, w.index.observe)
	}
	return err
}

// locateCuts implements step 3: cut j+1 is how many keys are ≤ pivot j.
// The paper's ≤ 2·l_i/B also copies the buckets out, which nothing
// downstream needs.  A resumed node past phase 3 adopted its manifest's
// cuts instead.
func (w *worker) locateCuts() error {
	x, err := w.sortedIndex()
	if err != nil {
		return err
	}
	ranks, err := w.ranks(w.pivots, w.acct())
	w.cuts = append(append([]int64{0}, ranks...), x.keys)
	return err
}

// The intermediates: step 1's sorted file and the name prefix of step
// 4's received files (round buckets: hier.go).
const (
	sortedName = "hetsort.sorted"
	recvPrefix = "hetsort.recv"
)

func (w *worker) recvName(i int) string { return fmt.Sprintf("%s%d", recvPrefix, i) }

// finalMerge implements step 5: external merge of the final-round
// inputs (the own bucket and the received files) — unless the fused
// step 4 already merged them in-stream, when this step's window only
// holds the commit.
func (w *worker) finalMerge() error {
	if w.merged {
		return nil
	}
	return polyphase.MergeSections(w.polyCfg("hetsort.s5."), w.finalInputs(), w.output)
}
