package experiments

import (
	"strings"
	"testing"
)

// TestRegressGateCommittedBaselines is the contract under tier-1: the
// repo's own BENCH_*.json, re-run at -maxp 16, reproduce with nothing
// regressed, nothing missing and every delta exactly zero.
func TestRegressGateCommittedBaselines(t *testing.T) {
	rep, err := RegressionGate(Options{Seed: 1, MaxP: 16}, "../..", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("the gate compared nothing")
	}
	compared := map[string]bool{}
	for _, f := range rep.Findings {
		compared[strings.SplitN(f.Key, "/", 2)[0]] = true
		if f.Regressed || f.Current != f.Baseline {
			t.Errorf("%s %s: baseline %v, re-run %v %s", f.Key, f.Metric, f.Baseline, f.Current, f.Note)
		}
	}
	for _, e := range Baselined {
		if !compared[e.Name] {
			t.Errorf("no finding for %s", e.Name)
		}
	}
	for _, s := range rep.Skipped {
		if !strings.Contains(s, "beyond the -maxp cap 16") {
			t.Errorf("skipped for another reason than the cap: %s", s)
		}
	}
}

func TestDiff(t *testing.T) {
	row := func(p string, sha string, metrics map[string]float64) Row {
		return Row{Experiment: "e", Labels: map[string]string{"p": p}, Metrics: metrics, OutputSHA: sha}
	}
	base := row("16", "aa", map[string]float64{"vsec": 1, "block_ios": 100, "max_link_queue_hwm": 3})
	for _, tc := range []struct {
		name      string
		cur       []Row
		maxP      int
		regressed []string // metrics of the regressed findings
		skipped   int
	}{
		{name: "identical", cur: []Row{base}},
		{name: "vsec inside tolerance", cur: []Row{row("16", "aa", map[string]float64{"vsec": 1.04, "block_ios": 100})}},
		{name: "vsec outside tolerance", cur: []Row{row("16", "aa", map[string]float64{"vsec": 1.06, "block_ios": 100})},
			regressed: []string{"vsec"}},
		{name: "vsec lower", cur: []Row{row("16", "aa", map[string]float64{"vsec": 0.5, "block_ios": 100})}},
		{name: "integer up", cur: []Row{row("16", "aa", map[string]float64{"vsec": 1, "block_ios": 101})},
			regressed: []string{"block_ios"}},
		{name: "integer down", cur: []Row{row("16", "aa", map[string]float64{"vsec": 1, "block_ios": 99})}},
		{name: "sha mismatch", cur: []Row{row("16", "bb", map[string]float64{"vsec": 1, "block_ios": 100})},
			regressed: []string{"output_sha256"}},
		{name: "metric gone", cur: []Row{row("16", "aa", map[string]float64{"vsec": 1})},
			regressed: []string{"block_ios"}},
		{name: "missing row", cur: []Row{row("4", "aa", map[string]float64{"vsec": 1, "block_ios": 100})},
			regressed: []string{"row"}},
		{name: "missing row under a higher cap", maxP: 64, regressed: []string{"row"}},
		{name: "row beyond the cap", maxP: 4, skipped: 1},
		{name: "ungated metric", cur: []Row{row("16", "aa", map[string]float64{"vsec": 1, "block_ios": 100, "max_link_queue_hwm": 99})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := &RegressReport{TolerancePct: 5}
			rep.diff([]Row{base}, tc.cur, tc.maxP)
			var got []string
			for _, f := range rep.Findings {
				if f.Metric == "max_link_queue_hwm" {
					t.Errorf("ungated metric compared: %+v", f)
				}
				if f.Regressed {
					got = append(got, f.Metric)
				}
			}
			if strings.Join(got, ",") != strings.Join(tc.regressed, ",") || rep.Regressions() != len(tc.regressed) {
				t.Errorf("regressed %v, want %v", got, tc.regressed)
			}
			if len(rep.Skipped) != tc.skipped {
				t.Errorf("skipped %v, want %d", rep.Skipped, tc.skipped)
			}
			if tc.skipped == 0 && len(tc.regressed) == 0 && len(tc.cur) > 0 && len(rep.Findings) != 3 {
				t.Errorf("findings %+v, want vsec, block_ios and the SHA", rep.Findings)
			}
		})
	}
}
