package experiments

import (
	"fmt"

	"hetsort/internal/extsort"
)

// OverlapAblation runs A9: overlapped disk I/O (prefetch + write-behind)
// against the synchronous path, where every block transfer stalls the
// node.  It fails unless the overlapped run's output is byte-identical,
// its PDM block I/O count exactly equal (overlap changes when transfers
// cost time, never how many happen), its virtual time strictly lower
// and some disk time hidden.
func OverlapAblation(o Options) ([]Row, error) {
	o = o.withDefaults()
	rows, err := o.table("overlap", []metric{vsec, blockIOs, hiddenDisk}, paperRun(o,
		point{labels: variant("synchronous")},
		point{labels: variant("overlapped"), cfg: extsort.Config{Overlap: true}}))
	if err != nil {
		return nil, err
	}
	sync, over := rows[0].Metrics, rows[1].Metrics
	if over["block_ios"] != sync["block_ios"] {
		return nil, fmt.Errorf("A9: overlapped path did %v block I/Os, synchronous did %v — overlap must not change I/O counts",
			over["block_ios"], sync["block_ios"])
	}
	if over["vsec"] >= sync["vsec"] {
		return nil, fmt.Errorf("A9: overlapped run took %.3f virtual s, not strictly below the synchronous %.3f",
			over["vsec"], sync["vsec"])
	}
	if sync["hidden_disk_sec"] != 0 || over["hidden_disk_sec"] <= 0 {
		return nil, fmt.Errorf("A9: hidden disk time %v synchronous, %v overlapped",
			sync["hidden_disk_sec"], over["hidden_disk_sec"])
	}
	return rows, sameOutput(rows)
}
