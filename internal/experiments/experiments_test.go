package experiments

import (
	"strings"
	"testing"
)

// fastOptions shrinks everything so the whole suite runs in seconds.
func fastOptions() Options {
	return Options{SizeShift: 9, Trials: 2, Tapes: 6}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Trials != 5 || o.Tapes != 15 || o.BlockKeys != 2048 || o.MessageKeys != 8192 {
		t.Fatalf("full-scale defaults wrong: %+v", o)
	}
	s := Options{SizeShift: 6}.withDefaults()
	if s.BlockKeys <= 0 || s.MemoryKeys < s.Tapes*s.BlockKeys {
		t.Fatalf("scaled defaults inconsistent: %+v", s)
	}
}

func TestScale(t *testing.T) {
	o := Options{SizeShift: 4}
	if o.scale(1<<21) != 1<<17 {
		t.Fatal("scale shift")
	}
	if o.scale(1) != 1 {
		t.Fatal("scale floor")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(fastOptions())
	if len(rows) != 4 {
		t.Fatalf("rows=%d", len(rows))
	}
	if rows[0].Slowdown != 4 || rows[2].Slowdown != 1 {
		t.Fatalf("load factors wrong: %+v", rows)
	}
	out := Table1String(rows)
	for _, frag := range []string{"helmvige", "rossweisse", "fast-ethernet", "myrinet"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table1String missing %q", frag)
		}
	}
}

func TestTable2ShapeAndRatios(t *testing.T) {
	o := fastOptions()
	rows, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*len(Table2PaperSizes) {
		t.Fatalf("rows=%d", len(rows))
	}
	byNode := map[string][]Table2Row{}
	for _, r := range rows {
		byNode[r.Node] = append(byNode[r.Node], r)
		if r.Time.Mean <= 0 {
			t.Fatalf("non-positive time: %+v", r)
		}
	}
	// Loaded nodes ~4x slower at every size.
	for i := range Table2PaperSizes {
		fast := byNode["helmvige"][i].Time.Mean
		slow := byNode["rossweisse"][i].Time.Mean
		if ratio := slow / fast; ratio < 3.5 || ratio > 4.5 {
			t.Fatalf("size %d: slow/fast ratio %v not ~4", i, ratio)
		}
	}
	// Times grow superlinearly-ish with size.
	h := byNode["helmvige"]
	for i := 1; i < len(h); i++ {
		if h[i].Time.Mean <= h[i-1].Time.Mean {
			t.Fatalf("times not increasing with size: %v then %v", h[i-1].Time.Mean, h[i].Time.Mean)
		}
	}
	out := Table2String(rows)
	if !strings.Contains(out, "helmvige") || !strings.Contains(out, "Paper") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestCalibrationRecoversPaperVector(t *testing.T) {
	cal, err := Calibrate(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := PaperVector
	if len(cal.Vector) != len(want) {
		t.Fatalf("vector %v", cal.Vector)
	}
	for i := range want {
		if cal.Vector[i] != want[i] {
			t.Fatalf("calibrated %v want %v (times %v)", cal.Vector, want, cal.Times)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	rows, err := Table3(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
	homo, hetFE, hetMy := rows[0], rows[1], rows[2]
	// Heterogeneous distribution must clearly beat homogeneous on the
	// loaded cluster (paper: 303.94 -> 155.41, factor ~2).
	if ratio := homo.Time.Mean / hetFE.Time.Mean; ratio < 1.4 {
		t.Fatalf("hetero improvement %v below paper shape (~2x)", ratio)
	}
	// Myrinet changes little (paper: 155.41 vs 155.43).
	if diff := (hetFE.Time.Mean - hetMy.Time.Mean) / hetFE.Time.Mean; diff < -0.05 || diff > 0.25 {
		t.Fatalf("Myrinet effect %v%% out of shape", 100*diff)
	}
	// Load balance near optimal.
	for _, r := range rows {
		if r.SMax > 1.35 || r.SMax < 0.99 {
			t.Fatalf("%s: S(max)=%v out of range", r.Label, r.SMax)
		}
	}
	out := Table3String(rows)
	if !strings.Contains(out, "Myrinet") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestPacketSweepShape(t *testing.T) {
	o := fastOptions()
	rows, err := RunPacketSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(PacketSizes) {
		t.Fatalf("rows=%d", len(rows))
	}
	// Tiny packets must be clearly slower than the 8K best (paper:
	// 133.61 vs 32.6, factor ~4 at full scale; scaled runs compress
	// the gap but the ordering must hold).
	small := rows[0].Time.Mean
	var best float64
	for _, r := range rows {
		if best == 0 || r.Time.Mean < best {
			best = r.Time.Mean
		}
	}
	if small <= best {
		t.Fatalf("8-int packets (%v) should be slower than best (%v)", small, best)
	}
	if ratio := small / best; ratio < 1.5 {
		t.Fatalf("packet-size effect ratio %v too weak", ratio)
	}
	out := PacketSweepString(rows)
	if !strings.Contains(out, "MsgKeys") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestSpeedupsShape(t *testing.T) {
	s, err := ComputeSpeedups(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Qualitative shape of section 5: hetero beats homo; gains vs the
	// slow sequential exceed gains vs the fast sequential; parallel
	// homogeneous gains ~3 against the slow sequential.
	if s.HeteroVsHomo < 1.3 {
		t.Fatalf("HeteroVsHomo=%v", s.HeteroVsHomo)
	}
	if s.HeteroVsSlowSeq <= s.HeteroVsFastSeq {
		t.Fatalf("slow-seq gain %v should exceed fast-seq gain %v",
			s.HeteroVsSlowSeq, s.HeteroVsFastSeq)
	}
	if s.HomogeneousGain < 1.5 {
		t.Fatalf("HomogeneousGain=%v", s.HomogeneousGain)
	}
	if !strings.Contains(s.String(), "Paper") {
		t.Fatal("render")
	}
}

func TestFigure1PDM(t *testing.T) {
	rows, err := Figure1PDM(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.Penalty < 1 {
			t.Fatalf("D=%d penalty %v < 1", r.D, r.Penalty)
		}
		if r.StripedIOs < r.IndependentIOs {
			t.Fatalf("D=%d striped %d < independent %d", r.D, r.StripedIOs, r.IndependentIOs)
		}
	}
	if !strings.Contains(Figure1String(rows), "Striped") {
		t.Fatal("render")
	}
}

func TestOnDiskMode(t *testing.T) {
	o := fastOptions()
	o.OnDisk = true
	o.TempDir = t.TempDir()
	rows, err := Table3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%d", len(rows))
	}
}

func TestPacketSweepRatioMatchesPaperShape(t *testing.T) {
	// The paper's 133.61/32.6 = 4.1x ratio between 8-int and 8K-int
	// messages.  At reduced scale the per-message overhead shrinks
	// with the message count, so accept a broad band around it.
	o := fastOptions()
	o.SizeShift = 5
	o.Trials = 1
	rows, err := RunPacketSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	var t8, t8k float64
	for _, r := range rows {
		switch r.MessageKeys {
		case 8:
			t8 = r.Time.Mean
		case 8192:
			t8k = r.Time.Mean
		}
	}
	if ratio := t8 / t8k; ratio < 2.5 || ratio > 7 {
		t.Fatalf("8-int vs 8K-int ratio %v out of the paper's shape (~4.1)", ratio)
	}
}

// metricOf returns the named metric of the experiment's variant row.
func metricOf(t *testing.T, rows []Row, exp, variant, metric string) float64 {
	t.Helper()
	for _, r := range rows {
		if r.Experiment == exp && r.Labels["variant"] == variant {
			v, ok := r.Metrics[metric]
			if !ok || v < 0 {
				t.Fatalf("%s: metric %s = %v, present %v", r.Key(), metric, v, ok)
			}
			return v
		}
	}
	t.Fatalf("no row %s/variant=%s", exp, variant)
	return 0
}

func TestAblations(t *testing.T) {
	rows, err := Ablations(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, r := range rows {
		count[r.Experiment]++
		if r.OutputSHA == "" {
			t.Fatalf("%s: no output hash", r.Key())
		}
	}
	for id, want := range map[string]int{"A1": 2, "A2": 2, "A3": 4, "A4": 2, "A5": 3, "A6": 2} {
		if count[id] != want {
			t.Fatalf("ablation %s has %d rows, want %d", id, count[id], want)
		}
	}
	// A1: the refinement buys its balance with fewer shipped samples.
	if h, r := metricOf(t, rows, "A1", "histogram", "sample_keys"), metricOf(t, rows, "A1", "regular-sampling", "sample_keys"); h >= r {
		t.Fatalf("A1: histogram shipped %v sample keys, regular sampling %v", h, r)
	}
	// A5: virtual time must strictly decrease with more disks.
	d1, d2, d4 := metricOf(t, rows, "A5", "D=1", "vsec"), metricOf(t, rows, "A5", "D=2", "vsec"), metricOf(t, rows, "A5", "D=4", "vsec")
	if !(d4 < d2 && d2 < d1) {
		t.Fatalf("A5 times not decreasing with disks: %v %v %v", d1, d2, d4)
	}
	// A6: the baseline must do fewer block I/Os than Algorithm 1.
	if dw, a1 := metricOf(t, rows, "A6", "dewitt", "block_ios"), metricOf(t, rows, "A6", "algorithm1", "block_ios"); dw >= a1 {
		t.Fatalf("A6: dewitt I/O %v >= algorithm1 %v", dw, a1)
	}
	if out := RowsString("Ablations", rows); !strings.Contains(out, "A4") || !strings.Contains(out, "quantile-sketch") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestDistributionSweep(t *testing.T) {
	rows, err := DistributionSweep(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows=%d", len(rows))
	}
	// The paper's invariance claim: non-degenerate inputs should take
	// broadly similar time (within 2x of each other).
	var min, max float64
	for _, r := range rows {
		if r.Time.Mean <= 0 {
			t.Fatalf("%v: no time", r.Distribution)
		}
		if min == 0 || r.Time.Mean < min {
			min = r.Time.Mean
		}
		if r.Time.Mean > max {
			max = r.Time.Mean
		}
	}
	if max/min > 2.5 {
		t.Fatalf("time spread %vx across distributions — invariance claim broken", max/min)
	}
	if !strings.Contains(DistributionSweepString(rows), "zipf") {
		t.Fatal("render")
	}
}

// The execution ablations assert their own claims (byte-identical
// output, the block I/O and virtual-time inequalities); the tests pin
// the row shape the baselines and the regress gate rely on.
func TestOverlapAblation(t *testing.T) {
	rows, err := OverlapAblation(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	if hid := metricOf(t, rows, "overlap", "synchronous", "hidden_disk_sec"); hid != 0 {
		t.Fatalf("synchronous run hid %v disk seconds", hid)
	}
	if metricOf(t, rows, "overlap", "overlapped", "hidden_disk_sec") <= 0 {
		t.Fatal("overlapped run hid no disk time")
	}
}

func TestCheckpointAblation(t *testing.T) {
	rows, err := CheckpointAblation(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	off, on := metricOf(t, rows, "checkpoint", "off", "block_ios"), metricOf(t, rows, "checkpoint", "on", "block_ios")
	if crashed := metricOf(t, rows, "checkpoint", "on+crash+resume", "block_ios"); !(off < on && on < crashed) {
		t.Fatalf("block I/Os off=%v on=%v crash+resume=%v: manifests and redone work must each cost some", off, on, crashed)
	}
}

func TestRunAttribution(t *testing.T) {
	rep, err := RunAttribution(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != len(PaperVector) {
		t.Fatalf("%d nodes in report", len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if n.Clock <= 0 || n.Breakdown.Total() <= 0 {
			t.Fatalf("empty attribution for node %d: %+v", n.Node, n)
		}
		for s, skew := range n.StepSkew {
			if skew < 0 || skew > 10 {
				t.Fatalf("node %d step %d skew %v out of range", n.Node, s, skew)
			}
		}
	}
	out := AttributionString(rep)
	for _, frag := range []string{"Compute", "Disk", "Network", "Idle", "skew", "1:sequential-sort"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}
