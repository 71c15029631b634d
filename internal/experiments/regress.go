package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hetsort/internal/stats"
)

// The regression gate re-runs the deterministic experiments behind the
// committed BENCH_*.json baselines and diffs the new numbers against
// the committed ones.  Virtual-time metrics (vsec) get a percentage
// tolerance; protocol-integer metrics (block I/Os, peak open streams,
// redistribution rounds, links created) regress on ANY increase,
// because the simulator is deterministic and an extra block I/O is a
// real algorithmic change, not noise.  Host
// wall-clock (wallms) and output hashes are not compared: the former
// depends on the machine running the gate, the latter is a correctness
// property already asserted in-experiment.

// RegressFinding is one compared metric.
type RegressFinding struct {
	// Key identifies the measurement, e.g. "pipeline/pipelined" or
	// "scaling/p=64/tree".
	Key      string  `json:"key"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// DeltaPct is the relative change in percent ((cur-base)/base·100);
	// 0 when the baseline is 0.
	DeltaPct  float64 `json:"delta_pct"`
	Regressed bool    `json:"regressed"`
}

// RegressReport is the gate's full result (also the BENCH_regress.json
// artifact CI uploads).
type RegressReport struct {
	TolerancePct float64          `json:"tolerance_pct"`
	Findings     []RegressFinding `json:"findings"`
	// Skipped records baselines or rows the gate could not compare
	// (missing file, row beyond the -maxp cap) so a silently absent
	// baseline never reads as a pass.
	Skipped []string `json:"skipped,omitempty"`
}

// Regressions counts the findings that breached the gate.
func (r *RegressReport) Regressions() int {
	n := 0
	for _, f := range r.Findings {
		if f.Regressed {
			n++
		}
	}
	return n
}

// String renders the ranked findings table (regressions first).
func (r *RegressReport) String() string {
	t := &stats.Table{
		Title:   fmt.Sprintf("Perf-regression gate (vsec tolerance ±%.1f%%, integer metrics exact)", r.TolerancePct),
		Headers: []string{"Measurement", "Metric", "Baseline", "Current", "Delta", "Verdict"},
	}
	emit := func(wantRegressed bool) {
		for _, f := range r.Findings {
			if f.Regressed != wantRegressed {
				continue
			}
			verdict := "ok"
			if f.Regressed {
				verdict = "REGRESSED"
			}
			t.AddRow(f.Key, f.Metric,
				fmt.Sprintf("%.6g", f.Baseline), fmt.Sprintf("%.6g", f.Current),
				fmt.Sprintf("%+.2f%%", f.DeltaPct), verdict)
		}
	}
	emit(true)
	emit(false)
	out := t.String()
	for _, s := range r.Skipped {
		out += fmt.Sprintf("  skipped: %s\n", s)
	}
	return out
}

// compare appends a finding for one metric.  Tolerance applies
// only to vsec; integer protocol metrics regress on any increase.
func (r *RegressReport) compare(key, metric string, baseline, current float64) {
	f := RegressFinding{Key: key, Metric: metric, Baseline: baseline, Current: current}
	if baseline != 0 {
		f.DeltaPct = (current - baseline) / baseline * 100
	}
	switch metric {
	case "vsec":
		f.Regressed = baseline != 0 && f.DeltaPct > r.TolerancePct
	default:
		f.Regressed = current > baseline
	}
	r.Findings = append(r.Findings, f)
}

// benchPipelineFile mirrors benchtab's BENCH_pipeline.json shape.
type benchPipelineFile struct {
	Experiment string        `json:"experiment"`
	SizeShift  uint          `json:"size_shift"`
	Rows       []AblationRow `json:"rows"`
}

// benchPDMFile mirrors benchtab's BENCH_pdm.json shape.
type benchPDMFile struct {
	Experiment string   `json:"experiment"`
	SizeShift  uint     `json:"size_shift"`
	Rows       []PDMRow `json:"rows"`
}

// benchHistsortFile mirrors benchtab's BENCH_histsort.json shape.
type benchHistsortFile struct {
	Experiment string        `json:"experiment"`
	SizeShift  uint          `json:"size_shift"`
	Rows       []HistsortRow `json:"rows"`
}

// benchScalingFile mirrors benchtab's BENCH_scaling.json shape.
type benchScalingFile struct {
	Experiment string       `json:"experiment"`
	MaxP       int          `json:"max_p"`
	Rows       []ScalingRow `json:"rows"`
}

// RegressionGate loads the committed baselines from dir (pipeline, pdm,
// histsort and scaling), re-runs the experiments behind them at the
// baseline's own scale, and diffs.  A
// missing baseline file is recorded in Skipped, not an error; maxP
// caps how far the scaling re-run sweeps (baseline rows beyond the cap
// are skipped with a note).
func RegressionGate(o Options, dir string, tolerancePct float64, maxP int) (*RegressReport, error) {
	rep := &RegressReport{TolerancePct: tolerancePct}
	if err := rep.gatePipeline(o, filepath.Join(dir, "BENCH_pipeline.json")); err != nil {
		return nil, err
	}
	if err := rep.gatePDM(o, filepath.Join(dir, "BENCH_pdm.json")); err != nil {
		return nil, err
	}
	if err := rep.gateHistsort(o, filepath.Join(dir, "BENCH_histsort.json")); err != nil {
		return nil, err
	}
	if err := rep.gateScaling(o, filepath.Join(dir, "BENCH_scaling.json"), maxP); err != nil {
		return nil, err
	}
	return rep, nil
}

// gateHistsort re-runs the adversarial pivot ablation and diffs vsec
// (tolerance) plus the deterministic pivot-protocol metrics exactly:
// the simulator is seeded, so a larger expansion, an extra refinement
// round or an extra shipped sample is an algorithmic change, not noise.
// The in-experiment gates (byte-identical output across strategies,
// histogram no worse than regular sampling) re-fire on the re-run.
func (r *RegressReport) gateHistsort(o Options, path string) error {
	var base benchHistsortFile
	ok, err := loadBench(path, &base)
	if err != nil {
		return err
	}
	if !ok {
		r.Skipped = append(r.Skipped, fmt.Sprintf("%s: no baseline committed", path))
		return nil
	}
	o.SizeShift = base.SizeShift
	rows, err := HistsortAblation(o)
	if err != nil {
		return fmt.Errorf("regress: re-running histsort ablation: %w", err)
	}
	cur := make(map[string]HistsortRow, len(rows))
	rowKey := func(row HistsortRow) string {
		return fmt.Sprintf("p=%d/%s/%s", row.P, row.Generator, row.Strategy)
	}
	for _, row := range rows {
		cur[rowKey(row)] = row
	}
	for _, b := range base.Rows {
		key := "histsort/" + rowKey(b)
		c, found := cur[rowKey(b)]
		if !found {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s: point gone from the re-run", key))
			continue
		}
		r.compare(key, "vsec", b.VSec, c.VSec)
		r.compare(key, "expansion", b.Expansion, c.Expansion)
		r.compare(key, "sample_keys", float64(b.SampleKeys), float64(c.SampleKeys))
		r.compare(key, "rounds", float64(b.Rounds), float64(c.Rounds))
	}
	return nil
}

// gatePDM re-runs the A10 ablation at the baseline's committed scale
// and diffs vsec (tolerance) and block I/Os (exact — the simulator is
// deterministic, an extra block is an algorithmic change).  Output
// hashes are not compared across machines; byte-identity is asserted
// inside the experiment itself.
func (r *RegressReport) gatePDM(o Options, path string) error {
	var base benchPDMFile
	ok, err := loadBench(path, &base)
	if err != nil {
		return err
	}
	if !ok {
		r.Skipped = append(r.Skipped, fmt.Sprintf("%s: no baseline committed", path))
		return nil
	}
	o.SizeShift = base.SizeShift
	rows, err := PDMAblation(o)
	if err != nil {
		return fmt.Errorf("regress: re-running pdm ablation: %w", err)
	}
	cur := make(map[string]PDMRow, len(rows))
	for _, row := range rows {
		cur[row.Part+"/"+row.Variant] = row
	}
	for _, b := range base.Rows {
		key := "pdm/" + b.Part + "/" + b.Variant
		c, found := cur[b.Part+"/"+b.Variant]
		if !found {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s: variant gone from the re-run", key))
			continue
		}
		r.compare(key, "vsec", b.VSec, c.VSec)
		r.compare(key, "block_ios", float64(b.BlockIOs), float64(c.BlockIOs))
	}
	return nil
}

func (r *RegressReport) gatePipeline(o Options, path string) error {
	var base benchPipelineFile
	ok, err := loadBench(path, &base)
	if err != nil {
		return err
	}
	if !ok {
		r.Skipped = append(r.Skipped, fmt.Sprintf("%s: no baseline committed", path))
		return nil
	}
	// Re-run at the committed scale so the numbers are comparable.
	o.SizeShift = base.SizeShift
	rows, err := PipelineAblation(o)
	if err != nil {
		return fmt.Errorf("regress: re-running pipeline ablation: %w", err)
	}
	cur := make(map[string]float64, len(rows))
	for _, row := range rows {
		cur[row.Variant+"/"+row.Metric] = row.Value
	}
	for _, b := range base.Rows {
		if b.Metric == "wallms" { // host-dependent: never gated
			continue
		}
		c, found := cur[b.Variant+"/"+b.Metric]
		if !found {
			r.Skipped = append(r.Skipped, fmt.Sprintf("pipeline/%s: metric %s gone from the re-run", b.Variant, b.Metric))
			continue
		}
		r.compare("pipeline/"+b.Variant, b.Metric, b.Value, c)
	}
	return nil
}

func (r *RegressReport) gateScaling(o Options, path string, maxP int) error {
	var base benchScalingFile
	ok, err := loadBench(path, &base)
	if err != nil {
		return err
	}
	if !ok {
		r.Skipped = append(r.Skipped, fmt.Sprintf("%s: no baseline committed", path))
		return nil
	}
	capP := base.MaxP
	if maxP > 0 && maxP < capP {
		capP = maxP
	}
	rows, err := ScalingSweep(o, capP)
	if err != nil {
		return fmt.Errorf("regress: re-running scaling sweep: %w", err)
	}
	type pt struct {
		p    int
		topo string
	}
	cur := make(map[pt]ScalingRow, len(rows))
	for _, row := range rows {
		cur[pt{row.P, row.Topology}] = row
	}
	for _, b := range base.Rows {
		key := fmt.Sprintf("scaling/p=%d/%s", b.P, b.Topology)
		c, found := cur[pt{b.P, b.Topology}]
		if !found {
			if b.P > capP {
				r.Skipped = append(r.Skipped, fmt.Sprintf("%s: beyond the -maxp cap %d", key, capP))
			} else {
				r.Skipped = append(r.Skipped, fmt.Sprintf("%s: point gone from the re-run", key))
			}
			continue
		}
		r.compare(key, "vsec", b.VSec, c.VSec)
		r.compare(key, "peak_open_streams", float64(b.PeakOpenStreams), float64(c.PeakOpenStreams))
		// max_link_queue_hwm is recorded but not gated: a queue's depth
		// depends on how the host schedules the node goroutines (the same
		// binary gives 4 or 5 at p=4/grid, 9 or 11 at p=16/tree), and a
		// blocking gate compares only what repeats exactly.
		r.compare(key, "rounds", float64(b.Rounds), float64(c.Rounds))
		r.compare(key, "links_created", float64(b.LinksCreated), float64(c.LinksCreated))
	}
	return nil
}

// loadBench reads a baseline file; (false, nil) means it's absent.
func loadBench(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("regress: parsing %s: %w", path, err)
	}
	return true, nil
}
