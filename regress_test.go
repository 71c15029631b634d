package hetsort

// Regression tests for the bugs the cross-configuration harness work
// flushed out: silent WorkDir errors, non-finite load vectors, and the
// calibration trace that was silently dropped.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkDirErrorSurfaces pins the newCluster fix: a WorkDir whose
// node directories cannot be created must fail the sort, not silently
// fall back to in-memory disks.  The test nests the WorkDir under a
// regular file so MkdirAll fails with ENOTDIR even when running as
// root (chmod-based permission tests are no-ops for uid 0).
func TestWorkDirErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys := []Key{3, 1, 4, 1, 5, 9, 2, 6}
	_, _, err := Sort(keys, Config{
		Nodes: 2, WorkDir: filepath.Join(blocker, "work"),
		MemoryKeys: 256, BlockKeys: 16, Tapes: 4,
	})
	if err == nil {
		t.Fatal("Sort succeeded with a WorkDir nested under a regular file")
	}
	if !strings.Contains(err.Error(), "work dir") {
		t.Fatalf("error does not identify the work dir: %v", err)
	}
}

// TestLoadsValidation pins the ValidateLoads fix: NaN slips past a
// naive `v < 1` check (all NaN comparisons are false), and +Inf passes
// it outright; both must be rejected, by ParseLoads and by the
// Config.Loads path alike.
func TestLoadsValidation(t *testing.T) {
	cases := []struct {
		name  string
		loads []float64
		ok    bool
	}{
		{"valid", []float64{1, 2.5, 4}, true},
		{"below-one", []float64{1, 0.5}, false},
		{"nan", []float64{1, math.NaN()}, false},
		{"plus-inf", []float64{1, math.Inf(1)}, false},
		{"minus-inf", []float64{math.Inf(-1), 1}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		t.Run("config/"+tc.name, func(t *testing.T) {
			cfg := Config{Loads: tc.loads, MemoryKeys: 256, BlockKeys: 16, Tapes: 4}
			if tc.loads != nil {
				cfg.Nodes = len(tc.loads)
			}
			_, _, err := Sort([]Key{2, 1}, cfg)
			if tc.ok && err != nil {
				t.Fatalf("valid loads rejected: %v", err)
			}
			if !tc.ok && tc.loads != nil && err == nil {
				t.Fatalf("invalid loads %v accepted", tc.loads)
			}
		})
	}

	parse := []struct {
		in string
		ok bool
	}{
		{"1,2.5,4", true},
		{"1, 1", true},
		{"0.5,1", false},
		{"NaN,1", false},
		{"1,nan", false},
		{"+Inf,1", false},
		{"1,Infinity", false},
		{"-Inf,1", false},
		{"", false},
		{"1,bogus", false},
	}
	for _, tc := range parse {
		t.Run("parse/"+tc.in, func(t *testing.T) {
			got, err := ParseLoads(tc.in)
			if tc.ok && err != nil {
				t.Fatalf("ParseLoads(%q) rejected valid input: %v", tc.in, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("ParseLoads(%q) = %v, want error", tc.in, got)
				}
			}
		})
	}
}

// TestCalibrateTrace pins the Calibrate trace fix: the old code built a
// trace log when Config.Trace was set and then discarded it.  Calibrate
// now refuses the combination explicitly, and CalibrateReport returns
// the rendered trace.
func TestCalibrateTrace(t *testing.T) {
	cfg := Config{Nodes: 2, Loads: []float64{1, 2}, MemoryKeys: 256, BlockKeys: 16, Tapes: 4}

	if _, _, err := Calibrate(withTrace(cfg), 512); err == nil {
		t.Fatal("Calibrate accepted Config.Trace and would have dropped the trace")
	} else if !strings.Contains(err.Error(), "CalibrateReport") {
		t.Fatalf("refusal does not point at CalibrateReport: %v", err)
	}

	perf, times, err := Calibrate(cfg, 512)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if len(perf) != 2 || len(times) != 2 {
		t.Fatalf("Calibrate returned perf=%v times=%v, want 2 entries each", perf, times)
	}
	if perf[1] >= perf[0] {
		t.Fatalf("load-2 node should calibrate slower (perf is a speed, slowest=1): perf=%v", perf)
	}

	cal, err := CalibrateReport(withTrace(cfg), 512)
	if err != nil {
		t.Fatalf("CalibrateReport: %v", err)
	}
	if cal.TraceLog == nil || cal.Timeline == "" || cal.Gantt == "" {
		t.Fatalf("CalibrateReport dropped the trace: log=%v timeline=%d bytes gantt=%d bytes",
			cal.TraceLog != nil, len(cal.Timeline), len(cal.Gantt))
	}
	if !strings.Contains(cal.Timeline, "calibrate") {
		t.Fatalf("trace timeline does not mention the calibrate phase:\n%s", cal.Timeline)
	}

	if _, err := CalibrateReport(cfg, 0); err == nil {
		t.Fatal("CalibrateReport accepted perNodeKeys=0")
	}
}

func withTrace(cfg Config) Config {
	cfg.Trace = true
	return cfg
}

// TestDegenerateInputs pins the degenerate sizes across every pivot
// strategy directly at the public API (the harness corner list covers
// the same ground; this keeps the guarantee even with the harness
// filtered out).
func TestDegenerateInputs(t *testing.T) {
	strategies := []PivotStrategy{PivotRegularSampling, PivotRandom, PivotHistogram}
	inputs := []struct {
		name string
		keys []Key
	}{
		{"empty", nil},
		{"single", []Key{7}},
		{"n<p", []Key{9, 1, 5}},
		{"all-dup", func() []Key {
			keys := make([]Key, 400)
			for i := range keys {
				keys[i] = 42
			}
			return keys
		}()},
	}
	for _, strat := range strategies {
		for _, in := range inputs {
			t.Run(strat.String()+"/"+in.name, func(t *testing.T) {
				out, rep, err := Sort(in.keys, Config{
					Nodes: 4, PivotStrategy: strat,
					MemoryKeys: 256, BlockKeys: 16, Tapes: 4, MessageKeys: 32,
				})
				if err != nil {
					t.Fatalf("Sort: %v", err)
				}
				if len(out) != len(in.keys) {
					t.Fatalf("got %d keys, want %d", len(out), len(in.keys))
				}
				for i := 1; i < len(out); i++ {
					if out[i] < out[i-1] {
						t.Fatalf("output not sorted at %d", i)
					}
				}
				if rep == nil {
					t.Fatal("nil report")
				}
			})
		}
	}
}
