package experiments

import (
	"strings"
	"testing"
)

// TestPDMAblation runs A10 end to end at test scale.  The ablation is
// self-checking (byte-identical outputs, equal block I/Os where the
// change is timing-only, strict virtual-time improvements),
// so the test mostly asserts the row shape the BENCH_pdm.json baseline
// and the regression gate rely on.
func TestPDMAblation(t *testing.T) {
	rows, err := PDMAblation(fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := map[string]int{}
	for _, r := range rows {
		parts[r.Labels["part"]]++
		if r.Experiment != "pdm" || r.OutputSHA == "" || r.Metrics["block_ios"] <= 0 || r.Metrics["vsec"] <= 0 {
			t.Fatalf("row %s incomplete: %+v", r.Key(), r)
		}
	}
	if parts["disks"] != 6 || parts["run-formation"] != 3 {
		t.Fatalf("parts %v, want 6 disks variants and 3 run formers", parts)
	}
	byVariant := map[string]map[string]string{}
	for _, r := range rows {
		byVariant[r.Labels["variant"]] = r.Labels
	}
	if l := byVariant["d4-independent"]; l["access"] != "independent" || l["d"] != "4" {
		t.Fatalf("d4-independent row mislabelled: %v", l)
	}
	if l := byVariant["guidesort"]; l["run_former"] != "guidesort" {
		t.Fatalf("guidesort row mislabelled: %v", l)
	}
	out := RowsString("A10", rows)
	for _, frag := range []string{"d4-crash-resume", "galloping", "guidesort", "run_former", "block_ios"} {
		if !strings.Contains(out, frag) {
			t.Errorf("RowsString missing %q", frag)
		}
	}
}
