package hetsort

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// golden is what TestGoldenTimingOptions pins of a Report: the
// quantities the two timing-only options (Disks, Overlap) exist to move.
type golden struct {
	Time       float64
	NodeClocks []float64
	DiskIO     [][][3]int64 // per node, per member disk: reads, writes, seeks
	Breakdown  []TimeBreakdown
}

// literal renders g as the Go source of a golden value, so a deliberate
// model change re-captures by pasting the failure output.
func (g golden) literal() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{\n\tTime:       %v,\n\tNodeClocks: %#v,\n\tDiskIO: [][][3]int64{\n", g.Time, g.NodeClocks)
	for _, node := range g.DiskIO {
		b.WriteString("\t\t{")
		for d, s := range node {
			if d > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "{%d, %d, %d}", s[0], s[1], s[2])
		}
		b.WriteString("},\n")
	}
	b.WriteString("\t},\n\tBreakdown: []TimeBreakdown{\n")
	for _, t := range g.Breakdown {
		fmt.Fprintf(&b, "\t\t{%v, %v, %v, %v, %v},\n", t.Compute, t.Disk, t.Network, t.Idle, t.Overlapped)
	}
	b.WriteString("\t},\n}")
	return b.String()
}

// TestGoldenTimingOptions is the characterisation test of the D-disk
// and overlap cost models: three fixed-seed runs whose virtual time,
// node clocks, per-disk I/O and time attribution must equal, bit for
// bit, the literals captured at commit b1e4597 — when D > 1 still split
// every node file into member files and Overlap ran prefetch and
// write-behind goroutines.  Both options are accounting only, so how
// the bytes reach the disk may change freely; these numbers may not.
func TestGoldenTimingOptions(t *testing.T) {
	keys := make([]Key, 40000)
	for i := range keys {
		keys[i] = Key(2654435761 * uint32(i+7))
	}
	base := Config{Perf: []int{1, 1, 4, 4}, MemoryKeys: 4096, BlockKeys: 128, Tapes: 5, MessageKeys: 512, Seed: 1}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want golden
	}{
		{"D4-striped", func(c *Config) { c.Disks = 4 }, goldenD4Striped},
		{"D3-independent-overlap-pipeline", func(c *Config) {
			c.Disks, c.DiskAccess, c.Overlap, c.Pipeline = 3, DiskAccessIndependent, true, true
		}, goldenD3IndependentOverlapPipeline},
		{"D2-overlap-checkpoint-histogram", func(c *Config) {
			c.Disks, c.Overlap, c.PivotStrategy = 2, true, PivotHistogram
			c.Checkpoint.Enabled = true
		}, goldenD2OverlapCheckpointHistogram},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, rep, err := Sort(keys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := golden{Time: rep.Time, NodeClocks: rep.NodeClocks, Breakdown: rep.NodeBreakdown}
			for _, node := range rep.DiskIO {
				var disks [][3]int64
				for _, s := range node {
					disks = append(disks, [3]int64{s.Reads, s.Writes, s.Seeks})
				}
				got.DiskIO = append(got.DiskIO, disks)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("report differs from the golden capture; got\n%s", got.literal())
			}
		})
	}
}

var goldenD4Striped = golden{
	Time:       0.31838097454543707,
	NodeClocks: []float64{0.31814097454543705, 0.31814097454543705, 0.31826097454543706, 0.31838097454543707},
	DiskIO: [][][3]int64{
		{{30, 27, 0}, {30, 27, 0}, {27, 24, 0}, {30, 24, 3}},
		{{34, 36, 0}, {34, 36, 0}, {32, 34, 0}, {35, 34, 3}},
		{{147, 145, 0}, {149, 143, 5}, {148, 141, 5}, {144, 137, 5}},
		{{151, 154, 0}, {153, 151, 5}, {150, 148, 5}, {146, 144, 5}},
	},
	Breakdown: []TimeBreakdown{
		{0.07438656000000274, 0.14945279999999936, 0.007966909090909097, 0.08633470545452288, 0},
		{0.08174656000000288, 0.16327679999999886, 0.00547345454545455, 0.0676441599999782, 0},
		{0.09084223999998339, 0.18877439999999743, 0.01036181818181819, 0.028282516363638655, 0},
		{0.09268559999998348, 0.19176959999999696, 0.010238181818181829, 0.023687592727275122, 0},
	},
}

var goldenD3IndependentOverlapPipeline = golden{
	Time:       0.24177229090907484,
	NodeClocks: []float64{0.24153229090907483, 0.24153229090907483, 0.24165229090907484, 0.24177229090907484},
	DiskIO: [][][3]int64{
		{{35, 30, 1}, {34, 29, 1}, {30, 25, 1}},
		{{35, 37, 1}, {34, 35, 1}, {30, 32, 1}},
		{{178, 170, 6}, {173, 164, 6}, {166, 161, 3}},
		{{178, 176, 6}, {173, 171, 6}, {166, 167, 3}},
	},
	Breakdown: []TimeBreakdown{
		{0.07437056000000275, 0.11169600000000043, 0.007966909090909097, 0.047498821818162215, 0.013334399999999986},
		{0.08173056000000282, 0.11264128000000045, 0.00547345454545455, 0.04168699636361664, 0.01546111999999999},
		{0.09083423999998344, 0.13199295999999944, 0.01036181818181819, 0.008463272727275345, 0.028019840000000063},
		{0.0926735999999835, 0.13168575999999949, 0.010238181818181829, 0.007174749090911564, 0.02905664000000009},
	},
}

var goldenD2OverlapCheckpointHistogram = golden{
	Time:       0.3249417454545508,
	NodeClocks: []float64{0.32470174545455077, 0.32470174545455077, 0.3248217454545508, 0.3249417454545508},
	DiskIO: [][][3]int64{
		{{82, 72, 6}, {78, 62, 0}},
		{{82, 72, 6}, {78, 62, 0}},
		{{358, 301, 6}, {347, 286, 0}},
		{{357, 300, 6}, {347, 285, 0}},
	},
	Breakdown: []TimeBreakdown{
		{0.08112768000000271, 0.23212352000000003, 0.009596363636363644, 0.0018541818181817271, 0.028996479999999932},
		{0.08127744000000282, 0.23214208000000003, 0.005992363636363642, 0.00528986181818214, 0.028977919999999928},
		{0.09416415999998372, 0.08026928000000036, 0.011053454545454556, 0.1393348509091238, 0.042553119999999826},
		{0.09411103999998384, 0.08027888000000041, 0.011053818181818192, 0.13949800727276035, 0.04237071999999982},
	},
}
