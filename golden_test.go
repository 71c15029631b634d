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
// (Re-captured twice since.  Once when step 3 stopped copying the sorted
// file into segment files: compute is unchanged to the last bit, every
// write count and disk time is lower, and round-0 bucket reads moved
// between member disks because a bucket now starts at its offset in the
// sorted file, not at block 0 of a file of its own.  Once when step 2
// stopped reading its samples back, step 1 keeping them as it writes:
// compute is unchanged to the last bit, the sample reads and every seek
// are gone, and disk time is lower.  The histogram case did not move: on
// 128-key blocks its rank queries price a scan below their probes.  And
// once when steps 4 and 5 fused wherever the final round fits M, which
// the striped and histogram cases' 4-way fan-in of 512-key messages
// does: the received files' read-back is gone (and, without checkpoints,
// their write), so every read count, disk time and clock is lower.  The
// independent case, which set the fusion switch of its day, did not
// move; only its name lost it.)
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
		{"D3-independent-overlap", func(c *Config) {
			c.Disks, c.DiskAccess, c.Overlap = 3, DiskAccessIndependent, true
		}, goldenD3IndependentOverlap},
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
	Time:       0.15466433454543912,
	NodeClocks: []float64{0.1544243345454391, 0.1544243345454391, 0.15454433454543912, 0.15466433454543912},
	DiskIO: [][][3]int64{
		{{24, 13, 0}, {25, 13, 0}, {24, 13, 0}, {23, 13, 0}},
		{{24, 18, 0}, {25, 18, 0}, {24, 18, 0}, {23, 18, 0}},
		{{129, 95, 0}, {125, 93, 0}, {124, 91, 0}, {124, 90, 0}},
		{{129, 100, 0}, {125, 97, 0}, {124, 96, 0}, {124, 95, 0}},
	},
	Breakdown: []TimeBreakdown{
		{0.07437056000000275, 0.017971200000000027, 0.007966909090909097, 0.054115665454524814, 0},
		{0.08173056000000282, 0.021196800000000106, 0.00547345454545455, 0.046023519999979154, 0},
		{0.09083423999998344, 0.04596479999999996, 0.01036181818181819, 0.007383476363636468, 0},
		{0.0926735999999835, 0.046886400000000036, 0.010238181818181829, 0.0048661527272726435, 0},
	},
}

var goldenD3IndependentOverlap = golden{
	Time:       0.11514957090907384,
	NodeClocks: []float64{0.11490957090907385, 0.11490957090907385, 0.11502957090907384, 0.11514957090907384},
	DiskIO: [][][3]int64{
		{{33, 18, 0}, {33, 18, 0}, {30, 16, 0}},
		{{33, 25, 0}, {33, 24, 0}, {30, 23, 0}},
		{{170, 126, 0}, {168, 122, 0}, {164, 121, 0}},
		{{170, 132, 0}, {168, 129, 0}, {164, 127, 0}},
	},
	Breakdown: []TimeBreakdown{
		{0.07437056000000275, 0.009418880000000008, 0.007966909090909097, 0.023153221818161873, 0.013313919999999986},
		{0.08173056000000282, 0.010364160000000008, 0.00547345454545455, 0.017341396363616188, 0.01544063999999999},
		{0.09083423999998344, 0.005447040000000005, 0.01036181818181819, 0.008386472727272443, 0.027999360000000063},
		{0.0926735999999835, 0.005139840000000005, 0.010238181818181829, 0.007097949090908731, 0.02903616000000009},
	},
}

var goldenD2OverlapCheckpointHistogram = golden{
	Time:       0.31586782545455105,
	NodeClocks: []float64{0.31562782545455104, 0.31562782545455104, 0.31574782545455105, 0.31586782545455105},
	DiskIO: [][][3]int64{
		{{66, 54, 6}, {64, 46, 0}},
		{{66, 54, 6}, {64, 46, 0}},
		{{317, 236, 6}, {311, 224, 0}},
		{{318, 235, 6}, {310, 223, 0}},
	},
	Breakdown: []TimeBreakdown{
		{0.08111168000000271, 0.22304831999999983, 0.009596363636363644, 0.0018714618181819576, 0.023326079999999957},
		{0.08126464000000282, 0.22308095999999986, 0.005992363636363642, 0.00528986181818214, 0.023293439999999957},
		{0.09415455999998379, 0.06854768000000061, 0.011053454545454556, 0.14199213090912233, 0.04252431999999982},
		{0.09410223999998386, 0.06858688000000059, 0.011053818181818192, 0.1421248872727589, 0.04236991999999982},
	},
}
