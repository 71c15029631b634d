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
		fmt.Fprintf(&b, "\t\t{Compute: %v, Disk: %v, Network: %v, Idle: %v, Overlapped: %v},\n",
			t.Compute, t.Disk, t.Network, t.Idle, t.Overlapped)
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
// move; only its name lost it.  And the histogram case once more when
// cuts became positions in the total order (key, node, offset): a
// histogram entry now carries the nearest keys on either side of its
// candidate beside its rank, four keys on the wire instead of two, so
// its network time and clocks are higher; every block count and every
// compute charge is unchanged, and the disk times differ in the last
// bits only: this case overlaps, and what a transfer hides depends on
// the clock it starts at.  And the histogram case once more when a fused
// final round stopped teeing its streams to receive files under
// checkpoints: every write count and disk time is lower, the compute and
// every read count unchanged.  Step 1's stopping one merge short moves
// none of the three: at 128-key blocks its probes price above the pass
// they would save.)
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
		{Compute: 0.07437056000000275, Disk: 0.017971200000000027, Network: 0.007966909090909097, Idle: 0.054115665454524814, Overlapped: 0},
		{Compute: 0.08173056000000282, Disk: 0.021196800000000106, Network: 0.00547345454545455, Idle: 0.046023519999979154, Overlapped: 0},
		{Compute: 0.09083423999998344, Disk: 0.04596479999999996, Network: 0.01036181818181819, Idle: 0.007383476363636468, Overlapped: 0},
		{Compute: 0.0926735999999835, Disk: 0.046886400000000036, Network: 0.010238181818181829, Idle: 0.0048661527272726435, Overlapped: 0},
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
		{Compute: 0.07437056000000275, Disk: 0.009418880000000008, Network: 0.007966909090909097, Idle: 0.023153221818161873, Overlapped: 0.013313919999999986},
		{Compute: 0.08173056000000282, Disk: 0.010364160000000008, Network: 0.00547345454545455, Idle: 0.017341396363616188, Overlapped: 0.01544063999999999},
		{Compute: 0.09083423999998344, Disk: 0.005447040000000005, Network: 0.01036181818181819, Idle: 0.008386472727272443, Overlapped: 0.027999360000000063},
		{Compute: 0.0926735999999835, Disk: 0.005139840000000005, Network: 0.010238181818181829, Idle: 0.007097949090908731, Overlapped: 0.02903616000000009},
	},
}

var goldenD2OverlapCheckpointHistogram = golden{
	Time:       0.3124147345454603,
	NodeClocks: []float64{0.3121747345454603, 0.3121747345454603, 0.3122947345454603, 0.3124147345454603},
	DiskIO: [][][3]int64{
		{{66, 38, 6}, {64, 32, 0}},
		{{66, 38, 6}, {64, 32, 0}},
		{{317, 196, 6}, {311, 187, 0}},
		{{318, 196, 6}, {310, 186, 0}},
	},
	Breakdown: []TimeBreakdown{
		{Compute: 0.08111168000000271, Disk: 0.21959231999999998, Network: 0.009596363636363644, Idle: 0.0018743709090910943, Overlapped: 0.019870079999999977},
		{Compute: 0.08126464000000282, Disk: 0.21962496000000004, Network: 0.005995272727272733, Idle: 0.00528986181818214, Overlapped: 0.019837439999999977},
		{Compute: 0.09415455999998379, Disk: 0.06621248000000068, Network: 0.011056363636363647, Idle: 0.14087133090912218, Overlapped: 0.040424319999999875},
		{Compute: 0.09410223999998386, Disk: 0.06626096000000066, Network: 0.011056727272727282, Idle: 0.14099480727275876, Overlapped: 0.04031823999999988},
	},
}
