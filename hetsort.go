// Package hetsort is an out-of-core parallel sorting library for
// clusters whose processors run at different speeds, reproducing
// C. Cérin, "An Out-of-Core Sorting Algorithm for Clusters with
// Processors at Different Speed" (IPPS 2002).
//
// The library sorts 32-bit unsigned integers that do not fit in memory
// by running external PSRS (Parallel Sorting by Regular Sampling over
// polyphase merge sort) across a simulated cluster: one goroutine per
// node, a private disk per node (in-memory or directory-backed), a
// latency/bandwidth network model, and deterministic virtual time.
// Heterogeneity is expressed as the paper's perf vector: perf[i] is the
// relative speed of node i, and node i receives perf[i]/Σperf of the
// data, ending — by the PSRS theorem — with no more than twice that
// share after sorting.
//
// Quick use:
//
//	sorted, report, err := hetsort.Sort(keys, hetsort.Config{Perf: []int{1, 1, 4, 4}})
//
// For disk-resident data, see SortFile; for reproducing the paper's
// evaluation, see cmd/benchtab.
package hetsort

import (
	"errors"
	"fmt"

	"hetsort/internal/cluster"
	"hetsort/internal/dewitt"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/progress"
	"hetsort/internal/record"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
)

// Key is the record type the library sorts: a 32-bit unsigned integer,
// 4 bytes on disk, exactly the paper's data items.
type Key = uint32

// Network names accepted by Config.Network.
const (
	NetworkFastEthernet = "fast-ethernet" // the paper's default interconnect
	NetworkMyrinet      = "myrinet"       // the paper's second interconnect
	NetworkIdeal        = "ideal"         // zero-cost network
)

// Run-formation names accepted by Config.RunFormation.
const (
	RunReplacementSelection = "replacement-selection"
	RunLoadSort             = "load-sort"
	RunGuidesort            = "guidesort"
)

// Disk-access names accepted by Config.DiskAccess.
const (
	// DiskAccessStriped schedules multi-disk I/O in lockstep stripes
	// (the PDM's striped model, default): a parallel I/O step completes
	// when the slowest involved member disk does, and breaking the
	// round-robin order costs a new step.
	DiskAccessStriped = "striped"
	// DiskAccessIndependent lets each member disk serve requests
	// independently (the PDM's independent model): any D distinct disks
	// can transfer concurrently regardless of order.
	DiskAccessIndependent = "independent"
)

// Algorithm names accepted by Config.Algorithm.
const (
	// AlgorithmExternalPSRS is the paper's Algorithm 1 (default).
	AlgorithmExternalPSRS = "external-psrs"
	// AlgorithmDeWitt is the randomized two-step distribution sort of
	// DeWitt, Naughton & Schneider (PDIS 1991), the prior work the
	// paper's section 2 identifies as closest in spirit.  It skips the
	// up-front external sort (fewer I/Os) but balances load only as
	// well as its random sample.
	AlgorithmDeWitt = "dewitt"
)

// Pivot-strategy names accepted by Config.PivotStrategy.
const (
	// PivotRegularSampling is the paper's Algorithm 1 (default).
	PivotRegularSampling = "regular-sampling"
	// PivotRandom picks pivots from unstructured random samples (the
	// strawman the regular-position discipline improves on).
	PivotRandom = "random-pivots"
	// PivotQuantileSketch answers the pivot quantiles from merged
	// ε-approximate sketches (the variant of the paper's reference
	// [29]): one extra read pass, grid-free balance.
	PivotQuantileSketch = "quantile-sketch"
	// PivotHistogram iteratively refines candidate splitters against
	// exact global histogram counts (Harsh, Kale & Solomonik's
	// Histogram Sort with Sampling): provable balance within
	// HistTolerance of every node's perf share, robust on the
	// duplicate-heavy and adversarial inputs that defeat one-shot
	// sampling, shipping only O(p) candidate keys per round.
	PivotHistogram = "histogram"
)

// Topology names accepted by Config.Topology.
const (
	// TopologyFlat is Algorithm 1 as written: star collectives for the
	// pivots and one all-to-all redistribution round (default).
	TopologyFlat = "flat"
	// TopologyTree aggregates pivot samples up a radix-r reduction tree
	// and redistributes through ⌈log_r p⌉ rounds of r-way exchanges, so
	// no node holds more than O(r) open streams — the structure that
	// scales the cluster to p=1024.
	TopologyTree = "tree"
	// TopologyGrid is the 2-round √p×√p special case of the tree.
	TopologyGrid = "grid"
)

// Config parameterises a sort.  The zero value is a valid homogeneous
// 4-node configuration with the paper's parameters (8 KiB blocks, 15
// intermediate files, 8K-integer messages, Fast Ethernet).
type Config struct {
	// Perf is the performance vector: one positive integer per node,
	// larger = faster (e.g. {1,1,4,4} for two nodes four times
	// faster).  Empty means Nodes homogeneous nodes.
	Perf []int
	// Nodes is the cluster size when Perf is empty (default 4).
	Nodes int
	// BlockKeys is the disk block size B in keys (default 2048).
	BlockKeys int
	// MemoryKeys is each node's internal memory M in keys (default 65536).
	MemoryKeys int
	// Tapes is the polyphase merge file count (default 15).
	Tapes int
	// MessageKeys is the redistribution message size in keys (default 8192).
	MessageKeys int
	// Disks is the PDM D parameter: the number of member disks each
	// node is modelled with (default 1).  With D > 1 block u of every
	// node file is served by member disk u mod D, sequential scans
	// complete up to D times faster (per-disk queues overlap the member
	// transfers), and per-disk I/O counters appear in Report.DiskIO.
	// Timing only: files, I/O counts and output bytes are independent
	// of D, and a checkpointed run may be resumed under a different D.
	Disks int
	// DiskAccess selects the multi-disk scheduling model by name:
	// DiskAccessStriped (default) or DiskAccessIndependent.  Timing
	// only; ignored at D = 1.
	DiskAccess string
	// Network selects the interconnect model by name (default
	// NetworkFastEthernet).
	Network string
	// RunFormation selects the initial run former by name (default
	// RunReplacementSelection).
	RunFormation string
	// Algorithm selects the sorting algorithm by name (default
	// AlgorithmExternalPSRS).
	Algorithm string
	// PivotStrategy selects the step-2 pivot scheme by name (default
	// PivotRegularSampling); only meaningful for AlgorithmExternalPSRS.
	PivotStrategy string
	// HistTolerance is the refinement tolerance when PivotStrategy is
	// PivotHistogram, as a fraction of the smallest perf share
	// (default 0.05).  Must be a finite value in (0, 1) when set.
	HistTolerance float64
	// WorkDir, when non-empty, backs each node's disk with a real
	// directory WorkDir/node<i> instead of an in-memory filesystem.
	WorkDir string
	// Loads optionally overrides the simulated slowdown of each node
	// (>= 1).  By default the loads are derived from Perf, modelling
	// the paper's cluster where the perf vector reflects real machine
	// load.  Setting Loads decouples the machine from the perf vector
	// — e.g. to measure a mis-calibrated vector.
	Loads []float64
	// Seed feeds input generation in the convenience helpers.
	Seed int64
	// Trace, when true, records a virtual-time event trace of the run
	// into Report.Timeline and Report.Gantt.
	Trace bool
	// Pipeline is ignored: steps 4 and 5 fuse whenever the final round
	// fits MemoryKeys.  It stays until bench/ stops setting it.
	Pipeline bool
	// Overlap models asynchronous disk I/O: readers are charged as
	// prefetching blocks ahead of the consumer and writers as flushing
	// behind it, hiding disk transfer time behind concurrent compute
	// (up to the node's disk parallelism per stream).  PDM I/O counts
	// and output bytes are identical to the synchronous mode; only
	// virtual time changes.  Only meaningful for AlgorithmExternalPSRS.
	Overlap bool
	// Topology selects the communication structure for pivot
	// aggregation and redistribution: TopologyFlat (default),
	// TopologyTree or TopologyGrid.  The hierarchical topologies keep
	// every node's fan-in at O(Radix) per round instead of O(p), at the
	// cost of ⌈log_r p⌉ redistribution rounds; output is byte-identical
	// to flat except under PivotQuantileSketch, where per-node
	// partition boundaries may shift (the global sorted sequence is
	// identical either way).  Only meaningful for AlgorithmExternalPSRS.
	Topology string
	// Radix is the tree fan-in r (default 4); ignored for flat and grid.
	Radix int
	// Checkpoint controls the fault-tolerance subsystem.
	Checkpoint CheckpointConfig
	// Progress, when set, lets other goroutines sample live per-node,
	// per-step snapshots while the sort runs (see internal/progress):
	// create a tracker with NewProgressTracker, set it here, and call
	// its Snapshot method concurrently with Sort/SortFile/Resume.
	// Sampling reads only atomically published state, so it never
	// perturbs virtual-time attribution or the output.  Only meaningful
	// for AlgorithmExternalPSRS.
	Progress *progress.Tracker
}

// NewProgressTracker returns a tracker to set on Config.Progress; see
// the internal/progress package for the snapshot shape.
func NewProgressTracker() *progress.Tracker { return progress.NewTracker() }

// CheckpointConfig controls crash tolerance.  With Enabled, every node
// durably commits a checkpoint manifest to its disk at each of the five
// phase boundaries of Algorithm 1; a run interrupted by a node failure
// can then be continued with Resume, re-running only the phases that
// did not commit.  Manifests live on the node disks, so genuine
// crash-restart recovery needs Config.WorkDir (in-memory disks only
// survive within one process).
type CheckpointConfig struct {
	// Enabled turns the phase boundaries into durable commit points.
	Enabled bool
	// CrashPhase, when 1..5, schedules an injected failure of node
	// CrashNode at the end of that phase, just before its commit —
	// the fault-injection hook for tests, demos and experiments.
	// Zero disables injection.
	CrashPhase int
	// CrashNode is the node the injected failure kills.
	CrashNode int
}

func (c Config) vector() (perf.Vector, error) {
	if len(c.Perf) > 0 {
		v := perf.Vector(c.Perf)
		return v, v.Validate()
	}
	n := c.Nodes
	if n <= 0 {
		n = 4
	}
	return perf.Homogeneous(n), nil
}

func (c Config) runFormation() (polyphase.RunFormation, error) {
	switch c.RunFormation {
	case "", RunReplacementSelection:
		return polyphase.ReplacementSelection, nil
	case RunLoadSort:
		return polyphase.LoadSort, nil
	case RunGuidesort:
		return polyphase.Guidesort, nil
	default:
		return 0, fmt.Errorf("hetsort: unknown run formation %q", c.RunFormation)
	}
}

func (c Config) diskAccess() (pdm.AccessMode, error) {
	switch c.DiskAccess {
	case "", DiskAccessStriped:
		return pdm.Striped, nil
	case DiskAccessIndependent:
		return pdm.Independent, nil
	default:
		return 0, fmt.Errorf("hetsort: unknown disk access mode %q", c.DiskAccess)
	}
}

func (c Config) blockKeys() int {
	if c.BlockKeys > 0 {
		return c.BlockKeys
	}
	return 2048
}

// newCluster assembles the simulated machine for this configuration,
// returning the optional trace log alongside it.
func (c Config) newCluster(v perf.Vector) (*cluster.Cluster, *trace.Log, error) {
	net, err := cluster.NetByName(c.Network)
	if err != nil {
		return nil, nil, fmt.Errorf("hetsort: %w", err)
	}
	access, err := c.diskAccess()
	if err != nil {
		return nil, nil, err
	}
	var tl *trace.Log
	if c.Trace {
		tl = new(trace.Log)
	}
	loads := c.Loads
	if loads == nil {
		loads = v.Slowdowns()
	} else if err := perf.ValidateLoads(loads); err != nil {
		return nil, nil, fmt.Errorf("hetsort: %w", err)
	}
	if len(loads) != len(v) {
		return nil, nil, fmt.Errorf("hetsort: %d loads for %d nodes", len(loads), len(v))
	}
	var disks func(int) diskio.FS
	var derr error
	if c.WorkDir != "" {
		disks = func(id int) diskio.FS {
			fs, e := diskio.NewDirFS(fmt.Sprintf("%s/node%d", c.WorkDir, id))
			if e != nil {
				// Remember the failure; newCluster surfaces it below.
				// The placeholder MemFS is never used.
				if derr == nil {
					derr = e
				}
				return diskio.NewMemFS()
			}
			return fs
		}
	}
	cl, err := cluster.New(cluster.Config{
		Slowdowns:    loads,
		Net:          net,
		BlockKeys:    c.blockKeys(),
		Disks:        disks,
		DisksPerNode: c.Disks,
		DiskAccess:   access,
		Trace:        tl,
	})
	if err != nil {
		return nil, nil, err
	}
	if derr != nil {
		return nil, nil, fmt.Errorf("hetsort: work dir %q: %w", c.WorkDir, derr)
	}
	return cl, tl, err
}

func (c Config) pivotStrategy() (extsort.Strategy, error) {
	switch c.PivotStrategy {
	case "", PivotRegularSampling:
		return extsort.RegularSampling, nil
	case PivotRandom:
		return extsort.RandomPivots, nil
	case PivotQuantileSketch:
		return extsort.QuantileSketch, nil
	case PivotHistogram:
		return extsort.Histogram, nil
	default:
		return 0, fmt.Errorf("hetsort: unknown pivot strategy %q", c.PivotStrategy)
	}
}

// extsortConfig builds the Algorithm-1 configuration, with defaults
// applied and validated for the cluster v describes.  Every entry point
// builds it before any data moves, whatever the algorithm, so a bad
// value fails fast.
func (c Config) extsortConfig(v perf.Vector) (extsort.Config, error) {
	rf, err := c.runFormation()
	if err != nil {
		return extsort.Config{}, err
	}
	strat, err := c.pivotStrategy()
	if err != nil {
		return extsort.Config{}, err
	}
	topo, err := extsort.ParseTopology(c.Topology)
	if err != nil {
		return extsort.Config{}, fmt.Errorf("hetsort: %w", err)
	}
	ecfg := extsort.Config{
		Perf:          v,
		BlockKeys:     c.blockKeys(),
		MemoryKeys:    c.MemoryKeys,
		Tapes:         c.Tapes,
		MessageKeys:   c.MessageKeys,
		RunFormation:  rf,
		Strategy:      strat,
		HistTolerance: c.HistTolerance,
		Seed:          c.Seed,
		Overlap:       c.Overlap,
		Topology:      topo,
		Radix:         c.Radix,
		Progress:      c.Progress,
	}
	ecfg.ApplyDefaults(len(v))
	return ecfg, ecfg.Validate(len(v))
}

// Sort sorts keys out of core on the configured simulated cluster and
// returns the sorted copy plus a Report.  The input slice is not
// modified.  Data still flows through real (node-private) files in
// blocks; only the orchestration is in-process.
func Sort(keys []Key, cfg Config) ([]Key, *Report, error) {
	v, err := cfg.vector()
	if err != nil {
		return nil, nil, err
	}
	ecfg, err := cfg.extsortConfig(v)
	if err != nil {
		return nil, nil, err
	}
	c, tl, err := cfg.newCluster(v)
	if err != nil {
		return nil, nil, err
	}
	want, err := extsort.StageInput(c, v, keys, cfg.blockKeys(), "input")
	if err != nil {
		return nil, nil, err
	}
	res, err := cfg.sortOnCluster(c, v, ecfg, want)
	if err != nil {
		return nil, nil, err
	}
	// Each node's output is read straight into its slot of the result.
	out := make([]Key, len(keys))
	slot := out
	for i, size := range res.PartitionSizes {
		f, r, err := diskio.Section{Name: "output", Keys: size}.Open(c.Node(i).FS(), cfg.blockKeys(), diskio.Accounting{})
		if err == nil {
			_, err = r.ReadKeys(slot[:size])
			r.Release()
			f.Close()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("hetsort: reading node %d's output: %w", i, err)
		}
		slot = slot[size:]
	}
	rep := newReport(res, v)
	rep.attachTrace(tl)
	rep.attachMetrics(c)
	return out, rep, nil
}

// sortOnCluster runs the selected algorithm on an already-loaded
// cluster (every node holds "input") and verifies the "output" files
// against the expected checksum.  ecfg is extsortConfig's result.  The
// result is normalised to an extsort.Result (the DeWitt baseline
// reports no per-step breakdown).
func (c Config) sortOnCluster(cl *cluster.Cluster, v perf.Vector, ecfg extsort.Config, want record.Checksum) (*extsort.Result, error) {
	if ph := c.Checkpoint.CrashPhase; ph != 0 {
		if ph < 1 || ph > 5 {
			return nil, fmt.Errorf("hetsort: Checkpoint.CrashPhase %d out of range 1..5", ph)
		}
		if err := cl.ScheduleCrash(c.Checkpoint.CrashNode, -1, extsort.StepNames[ph-1]); err != nil {
			return nil, err
		}
	}
	switch c.Algorithm {
	case "", AlgorithmExternalPSRS:
		ecfg.Checkpoint = c.Checkpoint.Enabled
		ecfg.InputSum = want
		res, err := extsort.Sort(cl, ecfg, "input", "output")
		if err != nil {
			return nil, err
		}
		if err := extsort.VerifyOutput(cl, "output", c.blockKeys(), want); err != nil {
			return nil, err
		}
		return res, nil
	case AlgorithmDeWitt:
		if c.Checkpoint.Enabled {
			return nil, errors.New("hetsort: checkpointing is only implemented for the external-psrs algorithm")
		}
		res, err := dewitt.Sort(cl, dewitt.Config{
			Perf:        v,
			BlockKeys:   c.blockKeys(),
			MemoryKeys:  c.MemoryKeys,
			Tapes:       c.Tapes,
			MessageKeys: c.MessageKeys,
			Seed:        c.Seed,
		}, "input", "output")
		if err != nil {
			return nil, err
		}
		if err := extsort.VerifyOutput(cl, "output", c.blockKeys(), want); err != nil {
			return nil, err
		}
		attr := make([]vtime.Breakdown, cl.P())
		for i := range attr {
			attr[i] = cl.Node(i).Attribution()
		}
		return &extsort.Result{
			Time:           res.Time,
			NodeClocks:     res.NodeClocks,
			PartitionSizes: res.PartitionSizes,
			NodeIO:         res.NodeIO,
			NodeAttr:       attr,
			Pivots:         res.Splitters,
		}, nil
	default:
		return nil, fmt.Errorf("hetsort: unknown algorithm %q", c.Algorithm)
	}
}

// Calibration reports one run of the paper's perf-vector calibration
// protocol: the derived vector, the per-node sequential sort times it
// was computed from, and — when Config.Trace was set — the rendered
// virtual-time trace of the calibration sorts.
type Calibration struct {
	// Perf is the derived perf vector (slowest node = 1).
	Perf []int
	// Times is each node's virtual time for the calibration sort.
	Times []float64
	// Timeline and Gantt hold the rendered trace when Config.Trace was
	// set.
	Timeline string
	Gantt    string
	// TraceLog is the raw event log when Config.Trace was set.
	TraceLog *trace.Log `json:"-"`
}

// Calibrate runs the paper's protocol for filling the perf vector on
// the configured cluster: each node externally sorts perNodeKeys keys;
// the ratios of the slowest time to each node's time become the vector.
// Config.Loads (or the perf-derived defaults) determine the machine
// being calibrated.  Config.Trace is rejected here because this
// signature has nowhere to return the timeline; use CalibrateReport.
func Calibrate(cfg Config, perNodeKeys int64) ([]int, []float64, error) {
	if cfg.Trace {
		return nil, nil, errors.New("hetsort: Calibrate cannot return a trace; use CalibrateReport for Config.Trace")
	}
	cal, err := CalibrateReport(cfg, perNodeKeys)
	if err != nil {
		return nil, nil, err
	}
	return cal.Perf, cal.Times, nil
}

// CalibrateReport is Calibrate with the full report: it additionally
// honours Config.Trace, attaching the virtual-time timeline and Gantt
// chart of the calibration sorts.
func CalibrateReport(cfg Config, perNodeKeys int64) (*Calibration, error) {
	if perNodeKeys <= 0 {
		return nil, errors.New("hetsort: perNodeKeys must be positive")
	}
	v, err := cfg.vector()
	if err != nil {
		return nil, err
	}
	c, tl, err := cfg.newCluster(v)
	if err != nil {
		return nil, err
	}
	ecfg, err := cfg.extsortConfig(v)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.P(); i++ {
		keys := record.Uniform.Generate(int(perNodeKeys), cfg.Seed+int64(i), 1)
		if err := diskio.WriteFile(c.Node(i).FS(), "calinput", keys, cfg.blockKeys(), diskio.Accounting{}); err != nil {
			return nil, err
		}
	}
	err = c.Run(func(n *cluster.Node) error {
		endPhase := n.TracePhase("calibrate")
		defer endPhase()
		pcfg := polyphase.Config{
			FS:         n.FS(),
			BlockKeys:  ecfg.BlockKeys,
			MemoryKeys: ecfg.MemoryKeys,
			Tapes:      ecfg.Tapes,
			Acct:       n.Acct(),
			TempPrefix: "cal.",
		}
		_, serr := polyphase.Sort(pcfg, "calinput", "caloutput")
		return serr
	})
	if err != nil {
		return nil, err
	}
	times := make([]float64, c.P())
	for i := range times {
		times[i] = c.Node(i).Clock()
	}
	vec, err := perf.FromTimes(times)
	if err != nil {
		return nil, err
	}
	cal := &Calibration{Perf: []int(vec), Times: times}
	if tl != nil {
		cal.TraceLog = tl
		cal.Timeline = tl.Timeline()
		cal.Gantt = tl.Gantt(60)
	}
	return cal, nil
}

// ValidSize rounds n up to the nearest input size for which the perf
// vector divides the data exactly (the paper's Equation-2 practice —
// e.g. {1,1,4,4} turns 2^24 into 16777220).
func ValidSize(perfVector []int, n int64) (int64, error) {
	v := perf.Vector(perfVector)
	if err := v.Validate(); err != nil {
		return 0, err
	}
	return v.NearestValidSize(n), nil
}
