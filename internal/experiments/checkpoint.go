package experiments

import "hetsort/internal/extsort"

// A7-A9 vary how the sort executes, never what it computes: the same
// uniform input on the paper's loaded cluster, perf {1,1,4,4}, once per
// variant.  Each is self-checking.

// variant labels a point by its variant name.
func variant(name string) map[string]string { return map[string]string{"variant": name} }

// paperRun completes one point per variant with the paper's machine and
// the suite's reference input.
func paperRun(o Options, variants ...point) []point {
	for i := range variants {
		variants[i].perf = PaperVector
		variants[i].n = PaperVector.NearestValidSize(o.scale(1 << 22))
		variants[i].seed = o.Seed
	}
	return variants
}

// CheckpointAblation runs A7: the cost of crash tolerance.  Checkpointing
// off, on (the pure overhead of the five durable manifest commits), and
// on with a node killed during redistribution and the run finished by
// the recovery planner (overhead plus the redone work).  Block I/Os for
// the crashed variant sum the interrupted and resumed runs; its virtual
// time is the resumed run's, whose clocks replay from the manifests, so
// all three times are comparable end-to-end figures.
func CheckpointAblation(o Options) ([]Row, error) {
	o = o.withDefaults()
	rows, err := o.table("checkpoint", []metric{vsec, blockIOs}, paperRun(o,
		point{labels: variant("off")},
		point{labels: variant("on"), cfg: extsort.Config{Checkpoint: true}},
		point{labels: variant("on+crash+resume"), crash: true}))
	if err != nil {
		return nil, err
	}
	return rows, sameOutput(rows)
}
