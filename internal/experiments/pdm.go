package experiments

import (
	"fmt"
	"strconv"

	"hetsort/internal/extsort"
	"hetsort/internal/pdm"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
)

// PDMAblation runs A10: saturating the per-node PDM.  Two parts, both
// self-checking.
//
// Part 1 (disks) sweeps the PDM D parameter over the full parallel sort
// on the paper's loaded cluster: D=1, D=2, D=4 striped, D=4 under the
// independent access model, and D=4 under each execution strategy
// (Overlap, and a checkpointed crash+resume).  D is
// timing-only, so the ablation fails unless the base variants move
// exactly the same number of blocks, every variant's output hashes
// identically, and every multi-disk variant finishes in strictly less
// virtual time than the single-disk run.
//
// Part 2 (run-formation) measures the sequential-phase run formers on
// one node sorting a banded input (12 disjoint key ranges, each one
// memory load): load-sort (one run per load, merged by the galloping
// kernel), guidesort, and replacement selection.  Guidesort coalesces
// the banded loads into long runs, so it must move no more blocks than
// load-sort in strictly less virtual time.  All three outputs must hash
// identically.
func PDMAblation(o Options) ([]Row, error) {
	o = o.withDefaults()
	rows, err := pdmDisks(o)
	if err != nil {
		return nil, err
	}
	formers, err := pdmRunFormers(o)
	if err != nil {
		return nil, err
	}
	return append(rows, formers...), nil
}

// pdmDisks is part 1: the D sweep over the full parallel sort.
func pdmDisks(o Options) ([]Row, error) {
	disks := func(name string, pt point) point {
		pt.labels = map[string]string{"part": "disks", "variant": name,
			"d": strconv.Itoa(pt.disks), "access": pt.access.String()}
		return pt
	}
	rows, err := o.table("pdm", []metric{vsec, blockIOs}, paperRun(o,
		disks("d1", point{disks: 1}),
		disks("d2", point{disks: 2}),
		disks("d4", point{disks: 4}),
		disks("d4-independent", point{disks: 4, access: pdm.Independent}),
		disks("d4-overlap", point{disks: 4, cfg: extsort.Config{Overlap: true}}),
		disks("d4-crash-resume", point{disks: 4, crash: true})))
	if err != nil {
		return nil, err
	}
	// The base variants move identical blocks (D and the access model are
	// timing-only; Overlap/resume legitimately change the count),
	// every output hashes identically, and more disks are strictly faster.
	d1 := rows[0].Metrics
	for _, r := range rows[1:4] {
		if r.Metrics["block_ios"] != d1["block_ios"] {
			return nil, fmt.Errorf("A10: %s moved %v blocks, d1 moved %v — D must be timing-only",
				r.Key(), r.Metrics["block_ios"], d1["block_ios"])
		}
	}
	if d2, d4 := rows[1].Metrics["vsec"], rows[2].Metrics["vsec"]; !(d4 < d1["vsec"] && d2 < d1["vsec"]) {
		return nil, fmt.Errorf("A10: multi-disk nodes not strictly faster: d1=%.4f d2=%.4f d4=%.4f", d1["vsec"], d2, d4)
	}
	return rows, sameOutput(rows)
}

// pdmRunFormers is part 2: the sequential-phase kernels on one node.
func pdmRunFormers(o Options) ([]Row, error) {
	// A banded input: 12 disjoint key ranges, each exactly one memory
	// load, so load-sort forms 12 runs while guidesort coalesces them
	// into one already-sorted stream.
	const bands = 12
	keys := make([]record.Key, 0, bands*o.MemoryKeys)
	state := uint64(o.Seed)*2862933555777941757 + 3037000493
	for b := 0; b < bands; b++ {
		base := record.Key(b) << 24
		for i := 0; i < o.MemoryKeys; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			keys = append(keys, base+record.Key(state>>40)&0xffffff)
		}
	}

	// Load-sort forms one run per memory load (12 disjoint-range runs,
	// a real merge); guidesort replaces the former entirely; replacement
	// selection rides along as the default former's number on the same
	// input.  The load-sort row keeps its historical variant name.
	var rows []Row
	for _, vt := range []struct {
		name   string
		former polyphase.RunFormation
	}{
		{name: "galloping", former: polyphase.LoadSort},
		{name: "guidesort", former: polyphase.Guidesort},
		{name: "replacement-selection", former: polyphase.ReplacementSelection},
	} {
		labels := map[string]string{"part": "run-formation", "variant": vt.name, "run_former": vt.former.String()}
		row, err := o.runSequential("pdm", labels, []metric{vsec, blockIOs}, 1, keys, func(cfg *polyphase.Config) {
			cfg.RunFormation = vt.former
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	// Guidesort coalesces the banded runs: no more blocks than load-sort,
	// strictly less time.  All outputs hash identically.
	load, guide := rows[0].Metrics, rows[1].Metrics
	if guide["block_ios"] > load["block_ios"] {
		return nil, fmt.Errorf("A10: guidesort moved %v blocks, more than load-sort's %v", guide["block_ios"], load["block_ios"])
	}
	if guide["vsec"] >= load["vsec"] {
		return nil, fmt.Errorf("A10: guidesort (%.4f vsec) not strictly below load-sort (%.4f)", guide["vsec"], load["vsec"])
	}
	return rows, sameOutput(rows)
}
