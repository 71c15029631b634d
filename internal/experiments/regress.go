package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"hetsort/internal/stats"
)

// The regression gate re-runs the deterministic experiments behind the
// committed BENCH_*.json baselines and diffs the new rows against the
// committed ones by (experiment, labels).  Virtual time (vsec) gets a
// percentage tolerance; every other metric regresses on ANY increase,
// because the simulator is deterministic and an extra block I/O is a
// real algorithmic change, not noise; the output SHA-256 must be equal.
// Host wall-clock is not stored: it depends on the machine running the
// gate.

// Baselined lists the experiments with a committed baseline, in gate
// order.  BENCH_<Name>.json is what benchtab writes for Name and what
// the gate reads.
var Baselined = []struct {
	Name, Title string
	Run         func(Options) ([]Row, error)
}{
	{"overlap", "A9: overlapped disk I/O vs the synchronous path", OverlapAblation},
	{"pdm", "A10: per-node PDM saturation (multi-disk striping + sequential-phase kernels)", PDMAblation},
	{"histsort", "Adversarial pivot ablation: histogram refinement vs one-shot strategies, {1,1,4,4} repeated", HistsortAblation},
	{"scaling", "Topology scaling sweep, {1,1,4,4} repeated, ~512 keys/node", ScalingSweep},
}

// Baseline is the one BENCH_*.json file shape: the scale the rows were
// captured at, and the rows.
type Baseline struct {
	SizeShift uint  `json:"size_shift"`
	MaxP      int   `json:"max_p"`
	Rows      []Row `json:"rows"`
}

// BaselinePath names experiment name's baseline file in dir.
func BaselinePath(dir, name string) string { return filepath.Join(dir, "BENCH_"+name+".json") }

// WriteJSON writes v, indented, to path.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ungated metrics are recorded in the baselines but never compared: a
// queue's depth depends on how the host schedules the node goroutines
// (the same binary gives 4 or 5 at p=4/grid, 9 or 11 at p=16/tree), and
// a blocking gate compares only what repeats exactly.
var ungated = map[string]bool{"max_link_queue_hwm": true}

// RegressFinding is one compared quantity of one baseline row.
type RegressFinding struct {
	// Key identifies the row, e.g. "scaling/n=32780/p=64/topology=tree".
	Key string `json:"key"`
	// Metric is a metric name, "output_sha256", or "row" for a baseline
	// row the re-run did not produce.
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// DeltaPct is the relative change in percent ((cur-base)/base·100);
	// 0 when the baseline is 0.
	DeltaPct  float64 `json:"delta_pct"`
	Regressed bool    `json:"regressed"`
	// Note says what went wrong where two numbers cannot.
	Note string `json:"note,omitempty"`
}

// RegressReport is the gate's full result (also the BENCH_regress.json
// artifact CI uploads).
type RegressReport struct {
	TolerancePct float64          `json:"tolerance_pct"`
	Findings     []RegressFinding `json:"findings"`
	// Skipped records the baseline rows beyond the -maxp cap.
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
		Title:   fmt.Sprintf("Perf-regression gate (vsec tolerance ±%.1f%%, other metrics exact-or-lower, output SHA-256 equal)", r.TolerancePct),
		Headers: []string{"Measurement", "Metric", "Baseline", "Current", "Delta", "Verdict"},
	}
	for _, regressed := range []bool{true, false} {
		for _, f := range r.Findings {
			if f.Regressed != regressed {
				continue
			}
			verdict := "ok"
			if f.Regressed {
				verdict = "REGRESSED " + f.Note
			}
			t.AddRow(f.Key, f.Metric,
				fmt.Sprintf("%.6g", f.Baseline), fmt.Sprintf("%.6g", f.Current),
				fmt.Sprintf("%+.2f%%", f.DeltaPct), verdict)
		}
	}
	out := t.String()
	for _, s := range r.Skipped {
		out += fmt.Sprintf("  skipped: %s\n", s)
	}
	return out
}

// diff compares a re-run against its baseline rows.  A baseline row the
// re-run lacks regresses unless it lies beyond the maxP cap (maxP ≤ 0:
// no cap); rows only the re-run has are new and pass.
func (r *RegressReport) diff(base, cur []Row, maxP int) {
	byKey := make(map[string]Row, len(cur))
	for _, row := range cur {
		byKey[row.Key()] = row
	}
	for _, b := range base {
		key := b.Key()
		c, found := byKey[key]
		if !found {
			if p, err := strconv.Atoi(b.Labels["p"]); err == nil && maxP > 0 && p > maxP {
				r.Skipped = append(r.Skipped, fmt.Sprintf("%s: beyond the -maxp cap %d", key, maxP))
			} else {
				r.Findings = append(r.Findings, RegressFinding{Key: key, Metric: "row", Regressed: true, Note: "missing from the re-run"})
			}
			continue
		}
		for _, m := range sortedKeys(b.Metrics) {
			if ungated[m] {
				continue
			}
			f := RegressFinding{Key: key, Metric: m, Baseline: b.Metrics[m], Current: c.Metrics[m]}
			if f.Baseline != 0 {
				f.DeltaPct = (f.Current - f.Baseline) / f.Baseline * 100
			}
			if _, ok := c.Metrics[m]; !ok {
				f.Regressed, f.Note = true, "missing from the re-run"
			} else if m == "vsec" {
				f.Regressed = f.Baseline != 0 && f.DeltaPct > r.TolerancePct
			} else {
				f.Regressed = f.Current > f.Baseline
			}
			r.Findings = append(r.Findings, f)
		}
		if b.OutputSHA != "" {
			f := RegressFinding{Key: key, Metric: "output_sha256", Regressed: c.OutputSHA != b.OutputSHA}
			if f.Regressed {
				f.Note = fmt.Sprintf("%.12s, baseline %.12s", c.OutputSHA, b.OutputSHA)
			}
			r.Findings = append(r.Findings, f)
		}
	}
}

// RegressionGate loads every Baselined experiment's committed baseline
// from dir, re-runs the experiment at the baseline's recorded scale
// (capped at Options.MaxP) and diffs.  A missing baseline file fails
// the gate.
func RegressionGate(o Options, dir string, tolerancePct float64) (*RegressReport, error) {
	rep := &RegressReport{TolerancePct: tolerancePct}
	for _, e := range Baselined {
		var base Baseline
		data, err := os.ReadFile(BaselinePath(dir, e.Name))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &base); err != nil {
			return nil, fmt.Errorf("regress: parsing %s: %w", BaselinePath(dir, e.Name), err)
		}
		run := o
		run.SizeShift = base.SizeShift
		if run.MaxP <= 0 || base.MaxP < run.MaxP {
			run.MaxP = base.MaxP
		}
		rows, err := e.Run(run)
		if err != nil {
			return nil, fmt.Errorf("regress: re-running %s: %w", e.Name, err)
		}
		rep.diff(base.Rows, rows, run.MaxP)
	}
	return rep, nil
}
