package hetsort_test

// This file lives in the external test package: internal/check imports
// hetsort, so the in-package tests cannot import it back.

import (
	"testing"

	"hetsort"
	"hetsort/internal/check"
)

// TestCheckQuick is the tier-1 entry point of the cross-configuration
// harness: the PR-gate sweep (deterministic corner cases plus a small
// seeded random sample, crash/resume on a subset) must stay green.
// `go run ./cmd/hetcheck` runs the same sweep at larger budgets.
func TestCheckQuick(t *testing.T) {
	sum := check.Sweep(check.Options{
		Quick:    true,
		BaseSeed: 1,
		Scratch:  t.TempDir(),
	})
	if sum.Cases == 0 || sum.Runs == 0 {
		t.Fatalf("sweep ran %d cases / %d runs", sum.Cases, sum.Runs)
	}
	for _, f := range sum.Failures {
		t.Errorf("%s\n%s", f.String(), f.Repro)
	}
}

// TestTheorem1InexactSpacing replays two shrunk cases on which regular
// sampling broke Theorem 1 where l_i/(p·perf_i) is not an integer: the
// integer spacing ⌊l_i/(p·perf_i)⌋ let a node draw more samples than
// its p·perf_i − 1, and the partitions outgrew 2·share (11 keys against
// 10, 7 against 6).
func TestTheorem1InexactSpacing(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []uint32
		cfg  hetsort.Config
	}{
		{"seed2034/staggered/p4", []uint32{1238162511, 1504861130, 2026358943, 4019843496, 3998091959,
			3254060479, 4099192242, 4122135978, 4156815620, 2087246125, 1717975785, 1641175452,
			2098054101, 1505971430, 1238283253, 3815989689, 3878396617, 3338726564, 3341935112,
			3884450691, 4226179867, 4276905183, 3539929033}, hetsort.Config{Nodes: 4}},
		{"seed5256/bucket/p2", []uint32{1318712817, 1301462783, 834066634, 2119168886, 1282936814,
			2468039017, 4293906558, 3967177355, 3794304128, 2880128895, 3643776791, 4228586339},
			hetsort.Config{Perf: []int{3, 1}}},
	} {
		for _, f := range check.Recheck(tc.keys, tc.cfg, "balance") {
			t.Errorf("%s: %v", tc.name, f)
		}
	}
}
