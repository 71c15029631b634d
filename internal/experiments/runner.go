package experiments

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/stats"
)

// An experiment is a table of points.  A point names an input, a
// machine and a sort configuration; the runner turns it into one Row,
// and what an experiment adds is the table and the assertions it makes
// across the rows.

// Row is one measured point: the shape of every experiment's output and
// of every committed BENCH_*.json baseline.
type Row struct {
	Experiment string `json:"experiment"`
	// Labels identify the point within its experiment; the regress gate
	// matches baseline and re-run by (Experiment, Labels).
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics"`
	// OutputSHA is the SHA-256 of the concatenated per-node output bytes.
	OutputSHA string `json:"output_sha256,omitempty"`
}

// Key renders the row's identity, labels in key order.
func (r Row) Key() string {
	var b strings.Builder
	b.WriteString(r.Experiment)
	for _, k := range sortedKeys(r.Labels) {
		fmt.Fprintf(&b, "/%s=%s", k, r.Labels[k])
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RowsString renders rows of any experiment: one line per point, one
// column per label and per metric any of them carries.
func RowsString(title string, rows []Row) string {
	labels, metrics := map[string]bool{}, map[string]bool{}
	for _, r := range rows {
		for l := range r.Labels {
			labels[l] = true
		}
		for m := range r.Metrics {
			metrics[m] = true
		}
	}
	labelCols, metricCols := sortedKeys(labels), sortedKeys(metrics)
	t := &stats.Table{Title: title, Headers: []string{"experiment"}}
	t.Headers = append(append(append(t.Headers, labelCols...), metricCols...), "sha256")
	for _, r := range rows {
		cells := []interface{}{r.Experiment}
		for _, l := range labelCols {
			cells = append(cells, r.Labels[l])
		}
		for _, m := range metricCols {
			if v, ok := r.Metrics[m]; ok {
				cells = append(cells, fmt.Sprintf("%.7g", v))
			} else {
				cells = append(cells, "")
			}
		}
		t.AddRow(append(cells, fmt.Sprintf("%.12s", r.OutputSHA))...)
	}
	return t.String()
}

// point is one measurement of the parallel sort.
type point struct {
	labels map[string]string
	// The input: n keys of dist from seed, shared out by perf.
	perf perf.Vector
	n    int64
	dist record.Distribution
	seed int64
	// The machine: node load factors (default: perf's own), D disks per
	// node under the access model, the interconnect (default Fast
	// Ethernet).
	slowdowns []float64
	disks     int
	access    pdm.AccessMode
	net       cluster.Network
	// cfg is the sort configuration.  The runner sets Perf and InputSum
	// and fills B, M, T and the message size from Options where zero.
	cfg extsort.Config
	// crash runs checkpointed, kills node 1 (a loaded node) during
	// redistribution and finishes the sort by recovery from the manifests.
	crash bool
	// algo replaces Algorithm 1 (A6's DeWitt baseline).
	algo func(*cluster.Cluster, extsort.Config) (*extsort.Report, error)
}

// outcome is what a metric is read from.
type outcome struct {
	pt  point
	c   *cluster.Cluster
	res *extsort.Report // nil for sequential points
	seq polyphase.Stats // sequential points only
	// blockIOs sums every node's PDM block I/Os, an interrupted attempt's
	// included.
	blockIOs int64
}

// metric is one column of an experiment's rows.
type metric struct {
	name string
	of   func(*outcome) float64
}

var (
	vsec      = metric{"vsec", func(o *outcome) float64 { return o.c.MaxClock() }}
	blockIOs  = metric{"block_ios", func(o *outcome) float64 { return float64(o.blockIOs) }}
	phases    = metric{"phases", func(o *outcome) float64 { return float64(o.seq.Phases) }}
	expansion = metric{"expansion", func(o *outcome) float64 { return o.res.SublistExpansion }}
	// sampleKeys counts the key-valued samples shipped through the step-2
	// collectives, pivotRounds the collective rounds they took.
	sampleKeys  = metric{"sample_keys", func(o *outcome) float64 { return float64(o.res.PivotSampleKeys) }}
	pivotRounds = metric{"rounds", func(o *outcome) float64 { return float64(o.res.PivotRounds) }}
	hiddenDisk  = metric{"hidden_disk_sec", func(o *outcome) float64 {
		var s float64
		for _, b := range o.res.NodeBreakdown {
			s += b.Overlapped
		}
		return s
	}}
	// peakStreams is the worst per-node redistribution fan-in (merge
	// inputs held open at once), redistRounds the number of
	// redistribution rounds, linkHWM the worst per-link incoming queue
	// high-water mark, links how many of the p² links materialized.
	peakStreams  = metric{"peak_open_streams", func(o *outcome) float64 { return o.maxGauge("redist.fanin.streams") }}
	redistRounds = metric{"rounds", func(o *outcome) float64 { return max(1, o.maxGauge("redist.rounds")) }}
	linkHWM      = metric{"max_link_queue_hwm", func(o *outcome) float64 {
		var hwm int64
		for i := 0; i < o.c.P(); i++ {
			hwm = max(hwm, o.c.LinkQueueHWM(i))
		}
		return float64(hwm)
	}}
	links = metric{"links_created", func(o *outcome) float64 { return float64(o.c.LinksCreated()) }}
)

func (o *outcome) maxGauge(name string) float64 {
	var m float64
	for i := 0; i < o.c.P(); i++ {
		m = max(m, o.c.Node(i).Metrics().Gauge(name).Value())
	}
	return m
}

// row reads the metrics and hashes the per-node files called name.
func (o *outcome) row(exp string, cols []metric, name string, blockKeys int) (Row, error) {
	r := Row{Experiment: exp, Labels: o.pt.labels, Metrics: map[string]float64{}}
	for _, m := range cols {
		r.Metrics[m.name] = m.of(o)
	}
	h := sha256.New()
	for i := 0; i < o.c.P(); i++ {
		keys, err := diskio.ReadFileAll(o.c.Node(i).FS(), name, blockKeys, diskio.Accounting{})
		if err != nil {
			return Row{}, err
		}
		h.Write(record.EncodeKeys(nil, keys))
	}
	r.OutputSHA = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// run measures one point: a fresh cluster, a fresh input, one sort
// (crashed and resumed if the point says so) through Machine.Run, which
// verifies the output and every node's time attribution, and every
// node's per-disk counters checked to sum to its node counters.
func (o Options) run(exp string, pt point, cols []metric) (Row, *extsort.Report, error) {
	fail := func(err error) (Row, *extsort.Report, error) {
		return Row{}, nil, fmt.Errorf("%s: %w", Row{Experiment: exp, Labels: pt.labels}.Key(), err)
	}
	m := extsort.Machine{Config: pt.cfg, Loads: pt.slowdowns, Net: pt.net,
		DisksPerNode: pt.disks, DiskAccess: pt.access, Disks: o.disks()}
	m.Perf = pt.perf
	m.BlockKeys = cmp.Or(m.BlockKeys, o.BlockKeys)
	m.MemoryKeys = cmp.Or(m.MemoryKeys, o.MemoryKeys)
	m.Tapes = cmp.Or(m.Tapes, o.Tapes)
	m.MessageKeys = cmp.Or(m.MessageKeys, o.MessageKeys)
	if pt.crash {
		m.Checkpoint, m.CrashPhase, m.CrashNode = true, 4, 1
	}
	c, err := m.Build()
	if err != nil {
		return fail(err)
	}
	if m.InputSum, err = extsort.DistributeInput(c, pt.perf, pt.dist, pt.n, pt.seed, m.BlockKeys, "input"); err != nil {
		return fail(err)
	}
	out := &outcome{pt: pt, c: c}
	if pt.crash {
		if _, err := m.Run(c, nil, false); err == nil {
			return fail(fmt.Errorf("injected crash did not interrupt the sort"))
		} else if !cluster.IsCrash(err) {
			return fail(fmt.Errorf("sort failed for a non-crash reason: %w", err))
		}
		for i := 0; i < c.P(); i++ {
			out.blockIOs += c.Node(i).IOStats().Total()
		}
	}
	if out.res, err = m.Run(c, pt.algo, pt.crash); err != nil {
		return fail(err)
	}
	for i, s := range out.res.NodeIO {
		out.blockIOs += s.Total()
		if out.res.DiskIO == nil {
			continue
		}
		var dsum pdm.IOStats
		for _, ds := range out.res.DiskIO[i] {
			dsum = dsum.Add(ds)
		}
		if pt.disks > 1 && dsum != s || pt.disks <= 1 && out.res.DiskIO[i] != nil {
			return fail(fmt.Errorf("node %d per-disk counters at D=%d sum to %+v, node counters are %+v", i, pt.disks, dsum, s))
		}
	}
	row, err := out.row(exp, cols, "output", m.BlockKeys)
	if err != nil {
		return fail(err)
	}
	return row, out.res, nil
}

// table runs the points in order.
func (o Options) table(exp string, cols []metric, pts []point) ([]Row, error) {
	rows := make([]Row, 0, len(pts))
	for _, pt := range pts {
		row, _, err := o.run(exp, pt, cols)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runSequential measures the polyphase external sort of keys on one
// node with the given load factor; tune adjusts the sort configuration.
func (o Options) runSequential(exp string, labels map[string]string, cols []metric,
	slowdown float64, keys []record.Key, tune func(*polyphase.Config)) (Row, error) {
	m := extsort.Machine{Config: extsort.Config{Perf: perf.Vector{1}, BlockKeys: o.BlockKeys,
		MemoryKeys: o.MemoryKeys, Tapes: o.Tapes}, Loads: []float64{slowdown}, Disks: o.disks()}
	c, err := m.Build()
	if err != nil {
		return Row{}, err
	}
	fs := c.Node(0).FS()
	if err := diskio.WriteFile(fs, "input", keys, o.BlockKeys, diskio.Accounting{}); err != nil {
		return Row{}, err
	}
	out := &outcome{pt: point{labels: labels}, c: c}
	err = c.Run(func(n *cluster.Node) (err error) {
		cfg := polyphase.Config{FS: fs, BlockKeys: o.BlockKeys, MemoryKeys: o.MemoryKeys,
			Tapes: o.Tapes, Acct: n.Acct(), TempPrefix: "tmp."}
		if tune != nil {
			tune(&cfg)
		}
		out.seq, err = polyphase.Sort(cfg, "input", "output")
		return err
	})
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", Row{Experiment: exp, Labels: labels}.Key(), err)
	}
	out.blockIOs = c.Node(0).IOStats().Total()
	return out.row(exp, cols, "output", o.BlockKeys)
}

// groupBy splits rows into runs of consecutive rows that agree on the
// given labels.
func groupBy(rows []Row, keys ...string) [][]Row {
	var groups [][]Row
	for i, r := range rows {
		same := i > 0
		for _, k := range keys {
			same = same && r.Labels[k] == rows[i-1].Labels[k]
		}
		if !same {
			groups = append(groups, nil)
		}
		groups[len(groups)-1] = append(groups[len(groups)-1], r)
	}
	return groups
}

// sameOutput fails unless every row's output hashes like the first's:
// a variant may move the clocks and the block counts, never the bytes.
func sameOutput(rows []Row) error {
	for _, r := range rows[1:] {
		if r.OutputSHA != rows[0].OutputSHA {
			return fmt.Errorf("%s output %.12s differs from %s's %.12s",
				r.Key(), r.OutputSHA, rows[0].Key(), rows[0].OutputSHA)
		}
	}
	return nil
}
