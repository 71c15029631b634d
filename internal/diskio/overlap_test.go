package diskio

import (
	"bytes"
	"io"
	"slices"
	"testing"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// overlapMeter records OverlapMeter traffic so the tests can check the
// window and charging protocol of overlapped streams.
type overlapMeter struct {
	vtime.Nop
	disks                int // reported by Disks(): the depth DepthFor resolves
	begins, ends         int
	depth                int
	overReads, overWrite int64
	direct               int64
}

func (m *overlapMeter) Disks() int         { return m.disks }
func (m *overlapMeter) BeginOverlap(d int) { m.begins++; m.depth = d }
func (m *overlapMeter) EndOverlap()        { m.ends++ }
func (m *overlapMeter) ChargeOverlappedIOBlocks(n int64, write bool) {
	if write {
		m.overWrite += n
	} else {
		m.overReads += n
	}
}
func (m *overlapMeter) ChargeIOBlocks(n int64)            { m.direct += n }
func (m *overlapMeter) ChargeDiskIOBlocks(_ int, n int64) { m.direct += n }

// TestOverlappedReaderMatchesReader: Accounting.Overlap changes how a
// Reader charges, nothing else — same keys, same block count, every
// block charged through one overlap window held from NewReader to
// Release (which is idempotent).
func TestOverlappedReaderMatchesReader(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			keys := record.Uniform.Generate(1000, 7, 1) // 15 full blocks + 1 partial at 64
			if err := WriteFile(fs, "x", keys, 64, Accounting{}); err != nil {
				t.Fatal(err)
			}
			var syncC, ovC pdm.Counter
			sf, _ := fs.Open("x")
			sr := NewReader(sf, 64, Accounting{Counter: &syncC})
			want, err := readAll(sr)
			if err != nil {
				t.Fatal(err)
			}
			sr.Release()
			sf.Close()

			of, _ := fs.Open("x")
			m := &overlapMeter{disks: 4}
			or := NewReader(of, 64, Accounting{Counter: &ovC, Meter: m, Overlap: Overlap{Enabled: true}})
			if m.begins != 1 || m.depth != 4 {
				t.Fatalf("NewReader opened %d windows of depth %d, want 1 of depth 4", m.begins, m.depth)
			}
			got, err := readAll(or)
			if err != nil {
				t.Fatal(err)
			}
			or.Release()
			or.Release()
			of.Close()

			if len(got) != len(want) {
				t.Fatalf("overlapped read %d keys, sync read %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("key %d: overlapped %d sync %d", i, got[i], want[i])
				}
			}
			if ovC.Reads() != syncC.Reads() {
				t.Fatalf("overlapped charged %d block reads, sync %d", ovC.Reads(), syncC.Reads())
			}
			if m.overReads != ovC.Reads() || m.overWrite != 0 || m.direct != 0 {
				t.Fatalf("meter saw %d overlapped reads, %d overlapped writes, %d direct blocks; counter %d reads",
					m.overReads, m.overWrite, m.direct, ovC.Reads())
			}
			if m.begins != 1 || m.ends != 1 {
				t.Fatalf("window begins=%d ends=%d, want 1/1", m.begins, m.ends)
			}
			if _, err := or.ReadKey(); err == nil {
				t.Fatal("read on released Reader succeeded")
			}
		})
	}
}

func readAll(r *Reader) ([]record.Key, error) {
	var out []record.Key
	buf := make([]record.Key, 50)
	for {
		n, err := r.ReadKeys(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
	}
}

// TestOverlappedWriterMatchesWriter is the Writer's counterpart: same
// file bytes, same block count, one window from NewWriter to Close.
func TestOverlappedWriterMatchesWriter(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			keys := record.Uniform.Generate(777, 3, 1)
			var syncC, ovC pdm.Counter
			sf, _ := fs.Create("sync")
			sw := NewWriter(sf, 64, Accounting{Counter: &syncC})
			if err := sw.WriteKeys(keys); err != nil {
				t.Fatal(err)
			}
			if err := sw.Close(); err != nil {
				t.Fatal(err)
			}
			sf.Close()

			of, _ := fs.Create("overlapped")
			m := &overlapMeter{disks: 3}
			ow := NewWriter(of, 64, Accounting{Counter: &ovC, Meter: m, Overlap: Overlap{Enabled: true}})
			// Dribble in odd-sized slices to exercise block splitting.
			for off := 0; off < len(keys); off += 13 {
				end := off + 13
				if end > len(keys) {
					end = len(keys)
				}
				if err := ow.WriteKeys(keys[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			if err := ow.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ow.Close(); err != nil {
				t.Fatal(err)
			}
			of.Close()

			want, err := ReadFileAll(fs, "sync", 64, Accounting{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadFileAll(fs, "overlapped", 64, Accounting{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(record.EncodeKeys(nil, want), record.EncodeKeys(nil, got)) {
				t.Fatal("overlapped output differs from synchronous output")
			}
			if ovC.Writes() != syncC.Writes() {
				t.Fatalf("overlapped charged %d block writes, sync %d", ovC.Writes(), syncC.Writes())
			}
			if m.overWrite != ovC.Writes() || m.overReads != 0 || m.direct != 0 {
				t.Fatalf("meter saw %d overlapped writes, %d overlapped reads, %d direct blocks; counter %d writes",
					m.overWrite, m.overReads, m.direct, ovC.Writes())
			}
			if ow.KeysWritten() != int64(len(keys)) {
				t.Fatalf("KeysWritten=%d want %d", ow.KeysWritten(), len(keys))
			}
			if m.begins != 1 || m.ends != 1 {
				t.Fatalf("window begins=%d ends=%d, want 1/1", m.begins, m.ends)
			}
		})
	}
}

// plainMeter is a vtime.Meter and nothing more.
type plainMeter struct{ blocks int64 }

func (m *plainMeter) ChargeCompute(int64)    {}
func (m *plainMeter) ChargeIOBlocks(n int64) { m.blocks += n }
func (m *plainMeter) ChargeSeek(int64)       {}

// TestOverlapNeedsAnOverlapMeter: on a meter without the window model
// an overlapped stream charges synchronously, and direct charges are
// synchronous whatever the mode.
func TestOverlapNeedsAnOverlapMeter(t *testing.T) {
	fs := NewMemFS()
	plain := &plainMeter{}
	on := Overlap{Enabled: true}
	if err := WriteFile(fs, "x", make([]record.Key, 25), 10, Accounting{Meter: plain, Overlap: on}); err != nil {
		t.Fatal(err)
	}
	if plain.blocks != 3 {
		t.Fatalf("plain meter saw %d synchronous blocks, want 3", plain.blocks)
	}
	m := &overlapMeter{}
	acct := Accounting{Meter: m, Overlap: on}
	acct.ChargeRead(0, 2)
	acct.ChargeWrite(0, 1)
	if m.direct != 3 || m.overReads+m.overWrite != 0 || m.begins != 0 {
		t.Fatalf("direct charges under Overlap: direct=%d overlapped=%d windows=%d, want 3/0/0",
			m.direct, m.overReads+m.overWrite, m.begins)
	}
}

// diskCountMeter is a meter that reports a disk count, standing in for
// cluster.Node in the depth-default tests.
type diskCountMeter struct {
	vtime.Nop
	disks int
}

func (m diskCountMeter) Disks() int { return m.disks }

// TestOverlapDefaultDepth checks depth resolution: the meter's disk
// count when it exposes one, floored at double buffering — the
// regression test for prefetch depth defaulting to the node's
// DisksPerNode.
func TestOverlapDefaultDepth(t *testing.T) {
	if got := (Overlap{}).DepthFor(nil); got != 2 {
		t.Fatalf("DepthFor(nil) = %d, want 2", got)
	}
	if got := (Overlap{}).DepthFor(diskCountMeter{disks: 4}); got != 4 {
		t.Fatalf("DepthFor(4-disk meter) = %d, want 4", got)
	}
	if got := (Overlap{}).DepthFor(diskCountMeter{disks: 1}); got != 2 {
		t.Fatalf("DepthFor(1-disk meter) = %d, want 2", got)
	}
	// A plain meter without a disk count still double-buffers.
	if got := (Overlap{}).DepthFor(vtime.Nop{}); got != 2 {
		t.Fatalf("DepthFor(Nop) = %d, want 2", got)
	}
}

// TestReadersMatchReaderPerSection: reading sections through one Reader
// per file (Readers, Reader.Seek, Reader.Idle) yields the keys, the
// block charges and the overlap windows — one per section, each closed
// before the next opens — that a Reader opened per section yields, and
// opens each file once.
func TestReadersMatchReaderPerSection(t *testing.T) {
	fs := NewMemFS()
	keys := record.Uniform.Generate(1000, 9, 1)
	for _, name := range []string{"a", "b"} {
		if err := WriteFile(fs, name, keys, 64, Accounting{}); err != nil {
			t.Fatal(err)
		}
	}
	secs := []Section{{"a", 0, 100}, {"b", 30, 0}, {"a", 100, 333}, {"b", 500, 500}, {"a", 999, 1}, {"a", 0, -1}}
	type result struct {
		keys  []record.Key
		ctr   pdm.IOStats
		meter overlapMeter
	}
	run := func(open func(Section, Accounting) (*Reader, func())) result {
		var ctr pdm.Counter
		m := &overlapMeter{disks: 2}
		acct := Accounting{Counter: &ctr, Meter: m, Overlap: Overlap{Enabled: true}}
		var got []record.Key
		for _, s := range secs {
			r, done := open(s, acct)
			k, err := readAll(r)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, k...)
			done()
			if m.begins != m.ends {
				t.Fatalf("section %+v left %d windows open", s, m.begins-m.ends)
			}
		}
		return result{got, ctr.Snapshot(), *m}
	}
	want := run(func(s Section, acct Accounting) (*Reader, func()) {
		f, r, err := s.Open(fs, 64, acct)
		if err != nil {
			t.Fatal(err)
		}
		return r, func() { r.Release(); f.Close() }
	})
	rs := &Readers{FS: fs, BlockKeys: 64}
	got := run(func(s Section, acct Accounting) (*Reader, func()) {
		rs.Acct = acct
		r, err := rs.Section(s)
		if err != nil {
			t.Fatal(err)
		}
		return r, r.Idle
	})
	if len(rs.open) != 2 {
		t.Fatalf("%d files open, want 2", len(rs.open))
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.keys, want.keys) || got.ctr != want.ctr || got.meter != want.meter {
		t.Fatalf("one Reader a file: %d keys, %+v, %+v; a Reader a section: %d keys, %+v, %+v",
			len(got.keys), got.ctr, got.meter, len(want.keys), want.ctr, want.meter)
	}
}
