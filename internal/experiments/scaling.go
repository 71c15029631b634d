package experiments

import (
	"fmt"
	"strconv"

	"hetsort/internal/extsort"
)

// ScalingSweep measures redistribution scaling from p=4 up to
// Options.MaxP (at most 1024): virtual time, peak open streams (flat is
// p; the tree stays O(r·log_r p)), per-link queue high-water marks,
// redistribution rounds (1 for flat, ⌈log_r p⌉ for the tree, 2 for the
// grid) and links created, for the flat baseline, the radix-4 tree and
// the 2-round grid, with ~512 keys per node.  It fails unless the
// outputs are byte-identical across topologies at every p, at p ≥ 64 the
// tree holds strictly fewer streams open than flat, and no topology's vsec
// falls as p grows (at fixed per-node load the work never shrinks).
func ScalingSweep(o Options) ([]Row, error) {
	o = o.withDefaults()
	var pts []point
	for _, p := range []int{4, 16, 64, 256, 1024} {
		if o.MaxP > 0 && p > o.MaxP {
			break
		}
		v := paperVectorRepeated(p)
		n := v.NearestValidSize(int64(512 * p))
		for _, vr := range []struct {
			topo  extsort.Topology
			radix int
		}{{extsort.TopologyFlat, 0}, {extsort.TopologyTree, 4}, {extsort.TopologyGrid, 0}} {
			labels := map[string]string{"p": strconv.Itoa(p), "topology": vr.topo.String(), "n": strconv.FormatInt(n, 10)}
			if vr.radix > 0 {
				labels["radix"] = strconv.Itoa(vr.radix)
			}
			pts = append(pts, point{labels: labels, perf: v, n: n, seed: o.Seed,
				cfg: smallMachine(extsort.Config{Topology: vr.topo, Radix: vr.radix})})
		}
	}
	rows, err := o.table("scaling", []metric{vsec, peakStreams, linkHWM, redistRounds, links}, pts)
	if err != nil {
		return nil, err
	}
	for _, g := range groupBy(rows, "p") {
		if err := sameOutput(g); err != nil {
			return nil, err
		}
		flat, tree := g[0].Metrics["peak_open_streams"], g[1].Metrics["peak_open_streams"]
		if flat >= 64 && tree >= flat {
			return nil, fmt.Errorf("%s holds %v streams open, not below flat's %v", g[1].Key(), tree, flat)
		}
	}
	for i := 3; i < len(rows); i++ { // rows[i-3]: the same topology, one p down
		if r, q := rows[i], rows[i-3]; r.Metrics["vsec"] < q.Metrics["vsec"] {
			return nil, fmt.Errorf("%s takes %v vsec, less than %s's %v", r.Key(), r.Metrics["vsec"], q.Key(), q.Metrics["vsec"])
		}
	}
	return rows, nil
}
