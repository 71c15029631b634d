package experiments

import (
	"fmt"

	"hetsort/internal/extsort"
)

// PipelineAblation runs A8: the fused redistribution→merge pipeline
// against the barrier path.  Barrier (steps 4 and 5 separated by the
// received files on disk), pipelined (streams merged straight into the
// output), and pipelined with checkpointing (spill-while-merging:
// streams teed to durable receive files for the phase-4 manifest).  It
// fails unless every variant's output is byte-identical and the
// pipelined variant performs strictly fewer block I/Os (it eliminates
// up to 2·l_i/B per node).
func PipelineAblation(o Options) ([]Row, error) {
	o = o.withDefaults()
	rows, err := o.table("pipeline", []metric{vsec, blockIOs}, paperRun(o,
		point{labels: variant("barrier")},
		point{labels: variant("pipelined"), cfg: extsort.Config{Pipeline: true}},
		point{labels: variant("pipelined+ckpt"), cfg: extsort.Config{Pipeline: true, Checkpoint: true}}))
	if err != nil {
		return nil, err
	}
	if barrier, fused := rows[0].Metrics["block_ios"], rows[1].Metrics["block_ios"]; fused >= barrier {
		return nil, fmt.Errorf("A8: pipelined path did %v block I/Os, not strictly below the barrier's %v", fused, barrier)
	}
	return rows, sameOutput(rows)
}
