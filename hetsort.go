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
	"hetsort/internal/enum"
	"hetsort/internal/extsort"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/progress"
	"hetsort/internal/record"
	"hetsort/internal/trace"
)

// Key is the record type the library sorts: a 32-bit unsigned integer,
// 4 bytes on disk, exactly the paper's data items.
type Key = uint32

// The six named choices of a sort are typed values: each has its names
// in one table, which its String, MarshalText and UnmarshalText read, so
// a flag (flag.TextVar), a JSON field and Go code set them alike, and
// the zero value is the default.
type (
	// Network selects the interconnect model.
	Network = cluster.Network
	// RunFormation selects the initial run former.
	RunFormation = polyphase.RunFormation
	// DiskAccess selects the multi-disk scheduling model.
	DiskAccess = pdm.AccessMode
	// PivotStrategy selects the step-2 pivot scheme.
	PivotStrategy = extsort.Strategy
	// Topology selects the communication structure of steps 2 and 4.
	Topology = extsort.Topology
)

// The values of Network, RunFormation, DiskAccess, PivotStrategy and
// Topology; the first of each is its default.
const (
	NetworkFastEthernet = cluster.NetFastEthernet // the paper's default interconnect
	NetworkMyrinet      = cluster.NetMyrinet      // the paper's second interconnect
	NetworkIdeal        = cluster.NetIdeal        // zero-cost network

	RunReplacementSelection = polyphase.ReplacementSelection
	RunLoadSort             = polyphase.LoadSort
	RunGuidesort            = polyphase.Guidesort

	// DiskAccessStriped schedules multi-disk I/O in lockstep stripes
	// (the PDM's striped model): a parallel I/O step completes when the
	// slowest involved member disk does, and breaking the round-robin
	// order costs a new step.
	DiskAccessStriped = pdm.Striped
	// DiskAccessIndependent lets each member disk serve requests
	// independently (the PDM's independent model): any D distinct disks
	// can transfer concurrently regardless of order.
	DiskAccessIndependent = pdm.Independent

	// PivotRegularSampling is the paper's Algorithm 1.
	PivotRegularSampling = extsort.RegularSampling
	// PivotRandom picks pivots from unstructured random samples (the
	// strawman the regular-position discipline improves on).
	PivotRandom = extsort.RandomPivots
	// PivotHistogram iteratively refines candidate splitters against
	// exact global histogram counts (Harsh, Kale & Solomonik's
	// Histogram Sort with Sampling): provable balance within
	// HistTolerance of every node's perf share, robust on the
	// duplicate-heavy and adversarial inputs that defeat one-shot
	// sampling, shipping only O(p) candidate keys per round.
	PivotHistogram = extsort.Histogram

	// TopologyFlat is Algorithm 1 as written: star collectives for the
	// pivots and one all-to-all redistribution round.
	TopologyFlat = extsort.TopologyFlat
	// TopologyTree aggregates pivot samples up a radix-r reduction tree
	// and redistributes through ⌈log_r p⌉ rounds of r-way exchanges, so
	// no node holds more than O(r) open streams — the structure that
	// scales the cluster to p=1024.
	TopologyTree = extsort.TopologyTree
	// TopologyGrid is the 2-round √p×√p special case of the tree.
	TopologyGrid = extsort.TopologyGrid
)

// Algorithm selects the sorting algorithm.
type Algorithm int

const (
	// AlgorithmExternalPSRS is the paper's Algorithm 1 (default).
	AlgorithmExternalPSRS Algorithm = iota
	// AlgorithmDeWitt is the randomized two-step distribution sort of
	// DeWitt, Naughton & Schneider (PDIS 1991), the prior work the
	// paper's section 2 identifies as closest in spirit.  It skips the
	// up-front external sort (fewer I/Os) but balances load only as
	// well as its random sample.
	AlgorithmDeWitt
)

var algorithmNames = enum.Table[Algorithm]{Kind: "algorithm", Names: []string{"external-psrs", "dewitt"}}

func (a Algorithm) String() string                { return algorithmNames.Name(a) }
func (a Algorithm) MarshalText() ([]byte, error)  { return algorithmNames.Marshal(a) }
func (a *Algorithm) UnmarshalText(b []byte) error { return algorithmNames.Unmarshal(a, b) }

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
	// DiskAccess selects the multi-disk scheduling model:
	// DiskAccessStriped (default) or DiskAccessIndependent.  Timing
	// only; ignored at D = 1.
	DiskAccess DiskAccess
	// Network selects the interconnect model (default
	// NetworkFastEthernet).
	Network Network
	// RunFormation selects the initial run former (default
	// RunReplacementSelection).
	RunFormation RunFormation
	// Algorithm selects the sorting algorithm (default
	// AlgorithmExternalPSRS).
	Algorithm Algorithm
	// PivotStrategy selects the step-2 pivot scheme (default
	// PivotRegularSampling); only meaningful for AlgorithmExternalPSRS.
	PivotStrategy PivotStrategy
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
	// cost of ⌈log_r p⌉ redistribution rounds; every node's output is
	// byte-identical to flat.  Only meaningful for AlgorithmExternalPSRS.
	Topology Topology
	// Radix is the tree fan-in r (default 4); ignored for flat and grid,
	// but refused when negative under every topology.
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

// machine is a Config resolved: the built extsort.Machine, its cluster
// and the algorithm Machine.Run takes (nil: Algorithm 1).
type machine struct {
	cfg Config
	extsort.Machine
	c    *cluster.Cluster
	algo func(*cluster.Cluster, extsort.Config) (*Report, error)
}

// resolve builds the Config's extsort.Machine, so a bad Config fails
// before a node directory is created or any data moves.  The injected
// crash is armed; Resume and CalibrateReport disarm it.
func (cfg Config) resolve() (*machine, error) {
	v := perf.Vector(cfg.Perf)
	if len(v) == 0 {
		v = perf.Homogeneous(4)
		if cfg.Nodes > 0 {
			v = perf.Homogeneous(cfg.Nodes)
		}
	}
	if err := enum.Valid(cfg.Algorithm); err != nil {
		return nil, fmt.Errorf("hetsort: %w", err)
	}
	var algo func(*cluster.Cluster, extsort.Config) (*Report, error)
	if cfg.Algorithm == AlgorithmDeWitt {
		if cfg.Checkpoint.Enabled {
			return nil, errors.New("hetsort: checkpointing is only implemented for the external-psrs algorithm")
		}
		algo = dewitt.Algo(0)
	}
	m := &machine{cfg: cfg, algo: algo, Machine: extsort.Machine{
		Config: extsort.Config{
			Perf:          v,
			BlockKeys:     cfg.BlockKeys,
			MemoryKeys:    cfg.MemoryKeys,
			Tapes:         cfg.Tapes,
			MessageKeys:   cfg.MessageKeys,
			RunFormation:  cfg.RunFormation,
			Strategy:      cfg.PivotStrategy,
			HistTolerance: cfg.HistTolerance,
			Seed:          cfg.Seed,
			Overlap:       cfg.Overlap,
			Topology:      cfg.Topology,
			Radix:         cfg.Radix,
			Checkpoint:    cfg.Checkpoint.Enabled,
			Progress:      cfg.Progress,
		},
		Loads:        cfg.Loads,
		Net:          cfg.Network,
		DisksPerNode: cfg.Disks,
		DiskAccess:   cfg.DiskAccess,
		CrashPhase:   cfg.Checkpoint.CrashPhase,
		CrashNode:    cfg.Checkpoint.CrashNode,
	}}
	if cfg.Trace {
		m.Trace = new(trace.Log)
	}
	if cfg.WorkDir != "" {
		m.Disks = diskio.NodeDirs(cfg.WorkDir)
	}
	var err error
	if m.c, err = m.Build(); err != nil {
		return nil, err
	}
	return m, nil
}

// release hands the in-memory node disks back: it removes every file
// on them, so their pages return to the pool for the next sort.  Node
// directories under WorkDir are left alone, since their manifests must
// outlive a crash.
func (m *machine) release() {
	if m.cfg.WorkDir != "" {
		return
	}
	for i := 0; i < m.c.P(); i++ {
		fs := m.c.Node(i).FS()
		names, _ := fs.Names() // a MemFS lists and removes without failing
		for _, n := range names {
			fs.Remove(n)
		}
	}
}

// Sort sorts keys out of core on the configured simulated cluster and
// returns the sorted copy plus a Report.  The input slice is not
// modified.  Data still flows through real (node-private) files in
// blocks; only the orchestration is in-process.
func Sort(keys []Key, cfg Config) ([]Key, *Report, error) {
	m, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	defer m.release()
	if m.InputSum, err = extsort.StageInput(m.c, m.Perf, keys, m.BlockKeys, "input"); err != nil {
		return nil, nil, err
	}
	var out []Key
	m.Land = func(n int64) (extsort.Lander, error) {
		out = make([]Key, n)
		return func(off int64, keys []Key) error { copy(out[off:], keys); return nil }, nil
	}
	rep, err := m.Run(m.c, m.algo, false)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
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
	m, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	defer m.release()
	m.c.ClearCrashes() // a calibration never runs the injected crash
	for i := 0; i < m.c.P(); i++ {
		keys := record.Uniform.Generate(int(perNodeKeys), cfg.Seed+int64(i), 1)
		if err := diskio.WriteFile(m.c.Node(i).FS(), "calinput", keys, m.BlockKeys, diskio.Accounting{}); err != nil {
			return nil, err
		}
	}
	err = m.c.Run(func(n *cluster.Node) error {
		endPhase := n.TracePhase("calibrate")
		defer endPhase()
		pcfg := polyphase.Config{
			FS:         n.FS(),
			BlockKeys:  m.BlockKeys,
			MemoryKeys: m.MemoryKeys,
			Tapes:      m.Tapes,
			Acct:       n.Acct(),
			TempPrefix: "cal.",
		}
		_, serr := polyphase.Sort(pcfg, "calinput", "caloutput")
		return serr
	})
	if err != nil {
		return nil, err
	}
	times := make([]float64, m.c.P())
	for i := range times {
		times[i] = m.c.Node(i).Clock()
	}
	vec, err := perf.FromTimes(times)
	if err != nil {
		return nil, err
	}
	cal := &Calibration{Perf: []int(vec), Times: times}
	if tl := m.Trace; tl != nil {
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
