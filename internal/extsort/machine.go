package extsort

import (
	"fmt"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/enum"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/record"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
)

// Machine is one run's whole description: the Algorithm-1 Config and
// the simulated hardware (cluster.Config's fields) it runs on.  The
// facade, the experiments runner and the service each describe a
// Machine and Build it, so its defaults and checks are every run's.
type Machine struct {
	Config
	Loads        []float64 // the nodes' slowdowns (default Perf.Slowdowns())
	Net          cluster.Network
	DisksPerNode int
	DiskAccess   pdm.AccessMode
	Trace        *trace.Log
	// Disks opens node id's private disk (default: a fresh MemFS).
	Disks func(id int) (diskio.FS, error)
	// CrashPhase, when 1..5, kills node CrashNode at the end of that
	// phase, just before its commit, in the cluster's first run.
	CrashPhase, CrashNode int
	// Land, when set, is where Run's verification pass lands the output.
	Land func(n int64) (Lander, error)
}

// Resolve fills in the defaults and checks every value: the perf
// vector, the loads, the network and disk access mode, the injected
// crash, then the Config.  It opens nothing, and resolving twice
// changes nothing.
func (m *Machine) Resolve() error {
	if err := m.Perf.Validate(); err != nil {
		return err
	}
	if err := enum.Valid(m.Net, m.DiskAccess); err != nil {
		return fmt.Errorf("extsort: %w", err)
	}
	p := len(m.Perf)
	if m.Loads == nil {
		m.Loads = m.Perf.Slowdowns()
	} else if err := perf.ValidateLoads(m.Loads); err != nil {
		return fmt.Errorf("extsort: %w", err)
	}
	if len(m.Loads) != p {
		return fmt.Errorf("extsort: %d loads for %d nodes", len(m.Loads), p)
	}
	if m.CrashPhase < 0 || m.CrashPhase > len(StepNames) {
		return fmt.Errorf("extsort: CrashPhase %d out of range 1..%d", m.CrashPhase, len(StepNames))
	}
	if m.CrashPhase != 0 && (m.CrashNode < 0 || m.CrashNode >= p) {
		return fmt.Errorf("extsort: CrashNode %d out of range 0..%d", m.CrashNode, p-1)
	}
	m.ApplyDefaults(p)
	return m.Validate(p)
}

// Build resolves the machine, then opens the node disks, builds the
// cluster and arms the injected crash: nothing is opened unless every
// check passes.
func (m *Machine) Build() (*cluster.Cluster, error) {
	if err := m.Resolve(); err != nil {
		return nil, err
	}
	var disks func(int) diskio.FS
	if m.Disks != nil {
		fss := make([]diskio.FS, len(m.Perf))
		for i := range fss {
			var err error
			if fss[i], err = m.Disks(i); err != nil {
				return nil, err
			}
		}
		disks = func(id int) diskio.FS { return fss[id] }
	}
	c, err := cluster.New(cluster.Config{Slowdowns: m.Loads, Net: m.Net.Model(), BlockKeys: m.BlockKeys,
		Disks: disks, DisksPerNode: m.DisksPerNode, DiskAccess: m.DiskAccess, Trace: m.Trace})
	if err == nil && m.CrashPhase != 0 {
		err = c.ScheduleCrash(m.CrashNode, -1, StepNames[m.CrashPhase-1])
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Run is every run's one tail on the built cluster c.  A fresh run
// sorts the staged "input" files into "output" with Algorithm 1, or
// with algo when it is non-nil (the DeWitt baseline); a resumed run
// disarms the injected crash and continues Algorithm 1 from the
// manifests, taking InputSum from them.  Either way one LandOutput pass
// then verifies the output and lands it where Land says (uncharged, so in
// chunks of at least 32 KiB whatever B is), every node's time
// attribution is checked to sum to its clock, and the report gains the
// rendered Trace.
func (m *Machine) Run(c *cluster.Cluster, algo func(*cluster.Cluster, Config) (*Report, error), resume bool) (*Report, error) {
	var res *Report
	var err error
	switch {
	case resume:
		c.ClearCrashes()
		var sum record.Checksum
		if res, sum, err = Resume(c, m.Config, "input", "output"); err == nil {
			m.InputSum = sum
		}
	case algo != nil:
		res, err = algo(c, m.Config)
	default:
		res, err = Sort(c, m.Config, "input", "output")
	}
	if err != nil {
		return nil, err
	}
	if err := LandOutput(c, "output", max(m.BlockKeys, 8192), m.InputSum, res.PartitionSizes, m.Land); err != nil {
		return nil, err
	}
	for i := 0; i < c.P(); i++ {
		n := c.Node(i)
		if err := vtime.CheckAttribution(n.Clock(), n.Attribution()); err != nil {
			return nil, fmt.Errorf("extsort: node %d: %w", i, err)
		}
	}
	if m.Trace != nil {
		res.TraceLog = m.Trace
		res.Timeline = m.Trace.Timeline()
		res.Gantt = m.Trace.Gantt(60)
	}
	return res, nil
}
