package experiments

import (
	"fmt"

	"hetsort/internal/extsort"
	"hetsort/internal/perf"
	"hetsort/internal/stats"
)

// PacketSweep reproduces the paper's in-text packet-size experiment
// (E4): sorting 2^21 integers on the homogeneous 4-node configuration,
// "with packet size of 8 integers, we need 133.61 seconds ... with
// message size of 8K integers we sort in 32.6s ... It seems that 8K
// gives the best time performance."
type PacketRow struct {
	MessageKeys int
	Time        stats.Summary
	PaperTime   float64 // paper's seconds where reported, else 0
}

// PacketPaperTimes maps the paper's reported packet results at 2^21.
var PacketPaperTimes = map[int]float64{
	8:    133.61,
	8192: 32.6,
}

// PacketSizes is the sweep grid in keys (integers).
var PacketSizes = []int{8, 64, 512, 2048, 8192, 32768}

// RunPacketSweep measures the sweep on the loaded cluster with the
// homogeneous (equal-shares) configuration, matching the paper's setup:
// its 32.6 s best case at 2^21 sits above the fast nodes' 22.9 s
// sequential time because two machines stay loaded.
func RunPacketSweep(o Options) ([]PacketRow, error) {
	o = o.withDefaults()
	v := perf.Homogeneous(4)
	n := o.scale(1 << 21)
	var rows []PacketRow
	for _, msg := range PacketSizes {
		scaled := msg >> o.SizeShift
		if scaled < 1 {
			scaled = 1
		}
		sum, err := o.trialSummary(func(seed int64) (float64, error) {
			row, _, rerr := o.run("packets", point{perf: v, n: n, seed: seed, slowdowns: PaperVector.Slowdowns(),
				cfg: extsort.Config{MessageKeys: scaled}}, []metric{vsec})
			return row.Metrics["vsec"], rerr
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: packet sweep msg=%d: %w", msg, err)
		}
		rows = append(rows, PacketRow{
			MessageKeys: msg,
			Time:        sum,
			PaperTime:   PacketPaperTimes[msg],
		})
	}
	return rows, nil
}

// PacketSweepString renders the sweep.
func PacketSweepString(rows []PacketRow) string {
	t := &stats.Table{
		Title:   "Packet-size sweep, homogeneous external PSRS at 2^21 keys (scaled)",
		Headers: []string{"MsgKeys", "Time(s)", "Dev", "PaperTime(s)"},
	}
	for _, r := range rows {
		paper := "-"
		if r.PaperTime > 0 {
			paper = fmt.Sprintf("%.2f", r.PaperTime)
		}
		t.AddRow(r.MessageKeys, r.Time.Mean, r.Time.StdDev, paper)
	}
	return t.String()
}
