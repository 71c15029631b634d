package diskio

import (
	"io"
	"testing"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

func seq(n int) []record.Key {
	keys := make([]record.Key, n)
	for i := range keys {
		keys[i] = record.Key(i*2347 + 11)
	}
	return keys
}

// diskAcct returns an accounting for a node of the given D and block
// size, with its node counter and per-disk counters.
func diskAcct(disks, blockKeys int, meter vtime.Meter) (Accounting, *pdm.Counter, []*pdm.Counter) {
	node := &pdm.Counter{}
	perDisk := make([]*pdm.Counter, disks)
	for i := range perDisk {
		perDisk[i] = &pdm.Counter{}
	}
	return Accounting{Counter: node, Meter: meter, Disks: perDisk,
		StripeBytes: int64(blockKeys * record.KeySize)}, node, perDisk
}

// TestStripedPlacement checks the placement function: block u of a file
// is served by member disk u mod D, whatever byte of the block is asked
// for; one disk, no stripe unit or a negative offset all mean disk 0.
func TestStripedPlacement(t *testing.T) {
	const unit = 8
	acct, _, _ := diskAcct(4, unit/record.KeySize, nil)
	for u := 0; u < 10; u++ {
		for _, within := range []int64{0, 1, unit - 1} {
			if got, want := acct.diskAt(int64(u*unit)+within), u%4; got != want {
				t.Fatalf("diskAt(unit %d + %d) = %d, want %d", u, within, got, want)
			}
		}
	}
	if got := acct.diskAt(-1); got != 0 {
		t.Fatalf("diskAt(-1) = %d, want 0", got)
	}
	one, _, _ := diskAcct(1, 2, nil)
	noUnit := acct
	noUnit.StripeBytes = 0
	for name, a := range map[string]Accounting{"D=1": one, "no unit": noUnit, "zero value": {}} {
		if got := a.diskAt(5 * unit); got != 0 {
			t.Fatalf("%s: diskAt = %d, want 0", name, got)
		}
	}
}

// TestStripedRoundTrip: under a D-disk accounting a file still yields
// exactly the keys written, block counts are those of a plain file, and
// the per-disk counters sum to the node counter — for sizes spanning
// empty, sub-block, exact multiples and ragged tails.
func TestStripedRoundTrip(t *testing.T) {
	const blockKeys = 8
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 256, 1000} {
		fs := NewMemFS()
		acct, node, perDisk := diskAcct(4, blockKeys, nil)
		keys := seq(n)
		if err := WriteFile(fs, "f", keys, blockKeys, acct); err != nil {
			t.Fatalf("n=%d: WriteFile: %v", n, err)
		}
		got, err := ReadFileAll(fs, "f", blockKeys, acct)
		if err != nil {
			t.Fatalf("n=%d: read: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: read %d keys", n, len(got))
		}
		for i := range got {
			if got[i] != keys[i] {
				t.Fatalf("n=%d: key %d differs: %v vs %v", n, i, got[i], keys[i])
			}
		}
		blocks := int64((n + blockKeys - 1) / blockKeys)
		var sum pdm.IOStats
		for _, c := range perDisk {
			sum = sum.Add(c.Snapshot())
		}
		if want := (pdm.IOStats{Reads: blocks, Writes: blocks}); sum != want || node.Snapshot() != want {
			t.Fatalf("n=%d: per-disk sum %+v, node %+v, want %+v", n, sum, node.Snapshot(), want)
		}
	}
}

// diskMeter records per-disk meter charges, standing in for the
// cluster node's per-disk queues.
type diskMeter struct {
	vtime.Nop
	blocks map[int]int64
	seeks  map[int]int64
}

func newDiskMeter() *diskMeter {
	return &diskMeter{blocks: map[int]int64{}, seeks: map[int]int64{}}
}

func (m *diskMeter) ChargeDiskIOBlocks(d int, n int64) { m.blocks[d] += n }
func (m *diskMeter) ChargeDiskSeek(d int, n int64)     { m.seeks[d] += n }

// TestStripedAccounting checks that block transfers on a plain file
// under a D-disk accounting are attributed round-robin to the member
// disks — in the per-disk PDM counters, in the DiskMeter charges, and
// summing exactly to the node counter — and that the file itself is one
// plain file.
func TestStripedAccounting(t *testing.T) {
	const blockKeys = 8
	fs := NewMemFS()
	meter := newDiskMeter()
	acct, node, perDisk := diskAcct(4, blockKeys, meter)

	// 10 blocks: disks 0,1 serve 3 blocks each, disks 2,3 serve 2.
	keys := seq(10 * blockKeys)
	if err := WriteFile(fs, "f", keys, blockKeys, acct); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.Names(); len(names) != 1 || names[0] != "f" {
		t.Fatalf("files on disk = %v, want the one plain file [f]", names)
	}
	for d, want := range []int64{3, 3, 2, 2} {
		if got := perDisk[d].Writes(); got != want {
			t.Fatalf("disk %d writes = %d, want %d", d, got, want)
		}
		if got := meter.blocks[d]; got != want {
			t.Fatalf("disk %d meter blocks = %d, want %d", d, got, want)
		}
	}
	if _, err := ReadFileAll(fs, "f", blockKeys, acct); err != nil {
		t.Fatal(err)
	}
	var sum pdm.IOStats
	for _, c := range perDisk {
		sum = sum.Add(c.Snapshot())
	}
	if sum != node.Snapshot() {
		t.Fatalf("per-disk sum %+v != node counter %+v", sum, node.Snapshot())
	}
	if node.Reads() != 10 || node.Writes() != 10 {
		t.Fatalf("node counter %+v, want 10 reads / 10 writes", node.Snapshot())
	}

	// ReadKeyAt charges the seek and the read to the disk holding the key.
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	idx := int64(3 * blockKeys) // first key of block 3 → disk 3
	if _, err := ReadKeyAt(f, idx, acct); err != nil {
		t.Fatal(err)
	}
	if got := perDisk[3].Seeks(); got != 1 {
		t.Fatalf("disk 3 seeks = %d, want 1", got)
	}
	if got := meter.seeks[3]; got != 1 {
		t.Fatalf("disk 3 meter seeks = %d, want 1", got)
	}

	// A Reader opened mid-file starts on the disk of its first block:
	// the handle sits just past that key, inside block 3; reading on
	// from block 4 touches disks 0, 1, 2, 3, 0, 1 in turn.
	if _, err := f.Seek(4*blockKeys*record.KeySize, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	before := meter.blocks[2]
	r := NewReader(f, blockKeys, acct)
	defer r.Release()
	buf := make([]record.Key, 3*blockKeys)
	if n, err := r.ReadKeys(buf); n != len(buf) || err != nil {
		t.Fatalf("mid-file read: (%d, %v)", n, err)
	}
	if got := meter.blocks[2] - before; got != 1 {
		t.Fatalf("blocks 4..6 charged disk 2 %d times, want 1 (block 6)", got)
	}
}

// TestStripedAccountingOverlapped mirrors TestStripedAccounting under
// Accounting.Overlap: per-disk counts are identical to the synchronous
// mode and still sum to the node counter.
func TestStripedAccountingOverlapped(t *testing.T) {
	const blockKeys = 8
	fs := NewMemFS()
	acct, node, perDisk := diskAcct(4, blockKeys, vtime.Nop{})
	acct.Overlap = Overlap{Enabled: true}

	keys := seq(10 * blockKeys)
	if err := WriteFile(fs, "f", keys, blockKeys, acct); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFileAll(fs, "f", blockKeys, acct)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("read %d keys, want %d", len(got), len(keys))
	}
	for d, want := range []int64{3, 3, 2, 2} {
		if got := perDisk[d].Writes(); got != want {
			t.Fatalf("disk %d writes = %d, want %d", d, got, want)
		}
		if got := perDisk[d].Reads(); got != want {
			t.Fatalf("disk %d reads = %d, want %d", d, got, want)
		}
	}
	var sum pdm.IOStats
	for _, c := range perDisk {
		sum = sum.Add(c.Snapshot())
	}
	if sum != node.Snapshot() {
		t.Fatalf("per-disk sum %+v != node counter %+v", sum, node.Snapshot())
	}
}
