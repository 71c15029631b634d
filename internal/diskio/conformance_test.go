package diskio_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/storage"
)

// fsImpl is one diskio.FS implementation under the conformance table.
type fsImpl struct {
	name string
	mk   func(t *testing.T) diskio.FS
	// inMemory implementations give every Create fresh bytes; the
	// directory-backed ones truncate the inode in place (POSIX O_TRUNC),
	// so a reader opened before the Create sees the new content.
	inMemory bool
}

func view(t *testing.T, b storage.Backend) diskio.FS {
	t.Helper()
	fs, err := b.FS("jobs/j1/node0")
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// fsImpls lists every FS the sorts can be handed: the two diskio
// filesystems and the two storage backends' FS views.
var fsImpls = []fsImpl{
	{"mem", func(*testing.T) diskio.FS { return diskio.NewMemFS() }, true},
	{"dir", func(t *testing.T) diskio.FS {
		d, err := diskio.NewDirFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}, false},
	{"object-view", func(t *testing.T) diskio.FS { return view(t, storage.NewObject()) }, true},
	{"dir-view", func(t *testing.T) diskio.FS {
		d, err := storage.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return view(t, d)
	}, false},
}

func TestFSConformance(t *testing.T) {
	for _, impl := range fsImpls {
		t.Run(impl.name, func(t *testing.T) { testFSConformance(t, impl) })
	}
}

// put creates name on fs holding data.
func put(t *testing.T, fs diskio.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeKeys creates name on fs holding the keys 0..n-1.
func writeKeys(t *testing.T, fs diskio.FS, name string, n int) {
	t.Helper()
	keys := make([]record.Key, n)
	for i := range keys {
		keys[i] = record.Key(i)
	}
	if err := diskio.WriteFile(fs, name, keys, 8, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
}

// readSection reads a section to its end in 8-key blocks.
func readSection(t *testing.T, fs diskio.FS, sec diskio.Section, acct diskio.Accounting) []record.Key {
	t.Helper()
	f, r, err := sec.Open(fs, 8, acct)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer r.Release()
	var keys []record.Key
	for buf := make([]record.Key, 5); ; {
		n, err := diskio.ReadChunk(r, buf)
		if err != nil {
			t.Fatalf("section %+v: %v", sec, err)
		}
		if n == 0 {
			return keys
		}
		keys = append(keys, buf[:n]...)
	}
}

// get returns the content of name on fs.
func get(t *testing.T, fs diskio.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pattern returns n bytes that start at seed and count up, so that two
// seeds give different bytes at every offset.
func pattern(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// testFSConformance is the handle and name-table contract every
// diskio.FS must meet; each case runs on a fresh filesystem.
func testFSConformance(t *testing.T, impl fsImpl) {
	cases := []struct {
		name string
		run  func(t *testing.T, fs diskio.FS)
	}{
		{"append", func(t *testing.T, fs diskio.FS) {
			f, err := fs.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []string{"abc", "", "defgh"} {
				if n, err := f.Write([]byte(chunk)); err != nil || n != len(chunk) {
					t.Fatalf("Write(%q) = %d, %v", chunk, n, err)
				}
			}
			f.Close()
			if got := get(t, fs, "f"); string(got) != "abcdefgh" {
				t.Fatalf("content %q", got)
			}
		}},
		{"overwrite in place keeps the tail", func(t *testing.T, fs diskio.FS) {
			f, _ := fs.Create("f")
			f.Write([]byte("01234567"))
			if _, err := f.Seek(2, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("xy"))
			f.Close()
			if got := get(t, fs, "f"); string(got) != "01xy4567" {
				t.Fatalf("content %q, want 01xy4567", got)
			}
		}},
		{"write past EOF zero-fills the gap", func(t *testing.T, fs diskio.FS) {
			f, _ := fs.Create("f")
			f.Write([]byte("ab"))
			if pos, err := f.Seek(3, io.SeekEnd); err != nil || pos != 5 {
				t.Fatalf("Seek past EOF: %d %v", pos, err)
			}
			f.Write([]byte("z"))
			f.Close()
			if got := get(t, fs, "f"); !bytes.Equal(got, []byte("ab\x00\x00\x00z")) {
				t.Fatalf("content %q", got)
			}
		}},
		{"large file: ragged writes, overwrites and gaps read back", func(t *testing.T, fs diskio.FS) {
			f, _ := fs.Create("f")
			var want []byte
			at := func(off int, data []byte) {
				if _, err := f.Seek(int64(off), io.SeekStart); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(data); err != nil {
					t.Fatal(err)
				}
				if end := off + len(data); end > len(want) {
					want = append(want, make([]byte, end-len(want))...)
				}
				copy(want[off:], data)
			}
			for i := 0; len(want) < 1_100_000; i++ {
				at(len(want), bytes.Repeat([]byte{byte(i)}, 1+i*97%5000))
			}
			// Long overwrites inside the file, then a gap of many blocks.
			at(32_000, bytes.Repeat([]byte{0xaa}, 70_000))
			at(1_000_000, bytes.Repeat([]byte{0xbb}, 100_000))
			at(1_300_000, []byte("tail"))
			f.Close()
			r, _ := fs.Open("f")
			defer r.Close()
			var got []byte
			for i := 0; ; i++ {
				buf := make([]byte, 1+i*7919%20000)
				n, err := r.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("read back %d bytes, want %d (first difference at %d)", len(got), len(want), firstDiff(got, want))
			}
		}},
		{"seek whences", func(t *testing.T, fs diskio.FS) {
			f, _ := fs.Create("f")
			defer f.Close()
			f.Write([]byte{0, 1, 2, 3, 4, 5, 6, 7})
			if pos, err := f.Seek(2, io.SeekStart); err != nil || pos != 2 {
				t.Fatalf("SeekStart: %d %v", pos, err)
			}
			if pos, err := f.Seek(2, io.SeekCurrent); err != nil || pos != 4 {
				t.Fatalf("SeekCurrent: %d %v", pos, err)
			}
			if pos, err := f.Seek(-1, io.SeekEnd); err != nil || pos != 7 {
				t.Fatalf("SeekEnd: %d %v", pos, err)
			}
			if _, err := f.Seek(-100, io.SeekStart); err == nil {
				t.Fatal("negative seek should fail")
			}
			if _, err := f.Seek(-9, io.SeekEnd); err == nil {
				t.Fatal("seek before the start should fail")
			}
			if _, err := f.Seek(0, 99); err == nil {
				t.Fatal("bad whence should fail")
			}
			// A failed seek leaves the position alone.
			var b [1]byte
			if _, err := f.Read(b[:]); err != nil || b[0] != 7 {
				t.Fatalf("read after failed seeks: %v %v", b, err)
			}
		}},
		{"read-only handle refuses Write", func(t *testing.T, fs diskio.FS) {
			put(t, fs, "f", []byte("data"))
			f, err := fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{1}); err == nil {
				t.Fatal("write to read-only handle should fail")
			}
			if got := get(t, fs, "f"); string(got) != "data" {
				t.Fatalf("content changed to %q", got)
			}
		}},
		{"closed handle returns os.ErrClosed", func(t *testing.T, fs diskio.FS) {
			f, _ := fs.Create("f")
			f.Write([]byte("x"))
			f.Close()
			if _, err := f.Write([]byte{1}); !errors.Is(err, os.ErrClosed) {
				t.Errorf("write after close: %v", err)
			}
			if _, err := f.Read(make([]byte, 1)); !errors.Is(err, os.ErrClosed) {
				t.Errorf("read after close: %v", err)
			}
			if _, err := f.Seek(0, io.SeekStart); !errors.Is(err, os.ErrClosed) {
				t.Errorf("seek after close: %v", err)
			}
		}},
		{"Create over an open reader isolates it", func(t *testing.T, fs diskio.FS) {
			if !impl.inMemory {
				t.Skip("directory-backed Create truncates the inode in place")
			}
			put(t, fs, "f", []byte("version-one"))
			r, err := fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			put(t, fs, "f", []byte("v2"))
			if got, err := io.ReadAll(r); err != nil || string(got) != "version-one" {
				t.Fatalf("open reader saw %q, %v", got, err)
			}
			if got := get(t, fs, "f"); string(got) != "v2" {
				t.Fatalf("new content %q", got)
			}
		}},
		// A file's pages may be recycled once its name is gone, but not
		// while a handle is open on it: each replacement below frees the
		// name, then other files of other patterns are written, and the
		// handle opened before still reads every old byte.
		{"a handle outlives Remove, Create over and Rename onto its name", func(t *testing.T, fs diskio.FS) {
			replace := []struct {
				name string
				do   func() error
			}{
				{"Remove", func() error { return fs.Remove("f") }},
				{"Create over", func() error { put(t, fs, "f", []byte("new")); return nil }},
				{"Rename onto", func() error { put(t, fs, "g", []byte("new")); return fs.Rename("g", "f") }},
			}
			for i, rp := range replace {
				if rp.name == "Create over" && !impl.inMemory {
					continue // a directory-backed Create truncates the open inode
				}
				old := pattern(byte(2*i+1), 300_000)
				put(t, fs, "f", old)
				r, err := fs.Open("f")
				if err != nil {
					t.Fatal(err)
				}
				if err := rp.do(); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 4; j++ {
					put(t, fs, "other", pattern(byte(2*i+2), 300_000))
					if err := fs.Remove("other"); err != nil {
						t.Fatal(err)
					}
				}
				put(t, fs, "other", pattern(0xEE, 300_000))
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil || !bytes.Equal(got, old) {
					t.Fatalf("after %s: the open handle read %d bytes, %v, first difference at %d", rp.name, len(got), err, firstDiff(got, old))
				}
			}
		}},
		{"a gap over recycled pages reads as zeros", func(t *testing.T, fs diskio.FS) {
			put(t, fs, "f", bytes.Repeat([]byte{0xFF}, 300_000))
			if err := fs.Remove("f"); err != nil {
				t.Fatal(err)
			}
			f, _ := fs.Create("g")
			f.Write([]byte("ab"))
			if _, err := f.Seek(200_000, io.SeekCurrent); err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("z"))
			f.Close()
			want := append(append([]byte("ab"), make([]byte, 200_000)...), 'z')
			if got := get(t, fs, "g"); !bytes.Equal(got, want) {
				t.Fatalf("read back %d bytes, want %d (first difference at %d)", len(got), len(want), firstDiff(got, want))
			}
		}},
		{"a second Close gives nothing back", func(t *testing.T, fs diskio.FS) {
			f, _ := fs.Create("f")
			f.Write(pattern(1, 300_000))
			f.Close()
			f.Close() // a directory-backed handle reports the second Close; either way it is a no-op
			want := map[string][]byte{"f": pattern(1, 300_000), "a": pattern(2, 300_000), "b": pattern(3, 300_000)}
			put(t, fs, "a", want["a"])
			put(t, fs, "b", want["b"])
			for _, name := range []string{"f", "a", "b"} {
				if got := get(t, fs, name); !bytes.Equal(got, want[name]) {
					t.Fatalf("file %s differs from what was written at %d: it shares a page with another", name, firstDiff(got, want[name]))
				}
			}
		}},
		{"Rename replaces", func(t *testing.T, fs diskio.FS) {
			put(t, fs, "a", []byte("from-a"))
			put(t, fs, "b", []byte("old-b-content"))
			if err := fs.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			if got := get(t, fs, "b"); string(got) != "from-a" {
				t.Fatalf("target holds %q", got)
			}
			if _, err := fs.Open("a"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("source still opens: %v", err)
			}
		}},
		{"Names is sorted", func(t *testing.T, fs diskio.FS) {
			for _, n := range []string{"c", "a", "b"} {
				put(t, fs, n, nil)
			}
			names, err := fs.Names()
			if err != nil || !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
				t.Fatalf("Names = %v, %v", names, err)
			}
		}},
		// Section readers: a run of keys inside a file, read in place.
		{"section: unaligned, exactly its keys, ceil(keys/B) reads, no seek", func(t *testing.T, fs diskio.FS) {
			writeKeys(t, fs, "f", 100)
			var ctr pdm.Counter
			got := readSection(t, fs, diskio.Section{Name: "f", Off: 13, Keys: 21}, diskio.Accounting{Counter: &ctr})
			if len(got) != 21 || got[0] != 13 || got[20] != 33 {
				t.Fatalf("section [13:+21] read %v", got)
			}
			if io := ctr.Snapshot(); io.Reads != 3 || io.Writes != 0 || io.Seeks != 0 {
				t.Fatalf("21 keys in 8-key blocks charged %+v, want 3 reads and nothing else", io)
			}
		}},
		{"section: whole file when Keys is negative", func(t *testing.T, fs diskio.FS) {
			writeKeys(t, fs, "f", 20)
			if got := readSection(t, fs, diskio.Section{Name: "f", Keys: -1}, diskio.Accounting{}); len(got) != 20 {
				t.Fatalf("whole-file section read %d keys", len(got))
			}
		}},
		{"section: empty charges nothing", func(t *testing.T, fs diskio.FS) {
			writeKeys(t, fs, "f", 100)
			var ctr pdm.Counter
			for _, off := range []int64{0, 50, 100} {
				if got := readSection(t, fs, diskio.Section{Name: "f", Off: off}, diskio.Accounting{Counter: &ctr}); len(got) != 0 {
					t.Fatalf("empty section at %d read %v", off, got)
				}
			}
			if io := ctr.Snapshot(); io.Total() != 0 || io.Seeks != 0 {
				t.Fatalf("empty sections charged %+v", io)
			}
		}},
		{"section: past EOF errors", func(t *testing.T, fs diskio.FS) {
			writeKeys(t, fs, "f", 100)
			for _, sec := range []diskio.Section{{Name: "f", Off: 90, Keys: 11}, {Name: "f", Off: 100, Keys: 1}, {Name: "f", Off: 200, Keys: 8}} {
				f, r, err := sec.Open(fs, 8, diskio.Accounting{})
				if err != nil {
					t.Fatal(err)
				}
				n, err := r.ReadKeys(make([]record.Key, sec.Keys))
				if err == nil || err == io.EOF {
					t.Errorf("section %+v of a 100-key file read %d keys, err %v", sec, n, err)
				}
				r.Release()
				f.Close()
			}
		}},
		{"section: D=4 blocks land on the disks of a whole-file read", func(t *testing.T, fs diskio.FS) {
			writeKeys(t, fs, "f", 100) // 12 full 8-key blocks and a 4-key one
			acct := func() (diskio.Accounting, []*pdm.Counter) {
				disks := []*pdm.Counter{{}, {}, {}, {}}
				return diskio.Accounting{Counter: new(pdm.Counter), Disks: disks, StripeBytes: 8 * record.KeySize}, disks
			}
			reads := func(disks []*pdm.Counter) (r [4]int64) {
				for d, c := range disks {
					r[d] = c.Snapshot().Reads
				}
				return r
			}
			whole, wholeDisks := acct()
			readSection(t, fs, diskio.Section{Name: "f", Keys: -1}, whole)
			// Blocks 3..7 live on disks 3, 0, 1, 2, 3.
			mid, midDisks := acct()
			readSection(t, fs, diskio.Section{Name: "f", Off: 24, Keys: 40}, mid)
			if got := reads(midDisks); got != [4]int64{1, 1, 1, 2} {
				t.Fatalf("blocks 3..7 read from disks %v, want [1 1 1 2]", got)
			}
			// Cut at block boundaries, the sections add up to the file.
			parts, partDisks := acct()
			for _, sec := range []diskio.Section{{Name: "f", Keys: 24}, {Name: "f", Off: 24, Keys: 40}, {Name: "f", Off: 64, Keys: 36}} {
				readSection(t, fs, sec, parts)
			}
			if got, want := reads(partDisks), reads(wholeDisks); got != want {
				t.Fatalf("three sections read disks %v, the whole file %v", got, want)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, impl.mk(t)) })
	}
}

// TestBlockAppendAllocatesLinearly is the regression test for an
// in-memory file that re-copies itself as it grows: it once allocated an
// exact-size buffer on every block written (≈ 1 GiB for the 1 MiB
// below), then grew one slice by append (≈ 5 MiB, each byte copied
// several times).  A file written block by block allocates what it holds
// and little more.
func TestBlockAppendAllocatesLinearly(t *testing.T) {
	for _, impl := range fsImpls {
		if !impl.inMemory {
			continue
		}
		t.Run(impl.name, func(t *testing.T) {
			f, err := impl.mk(t).Create("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			block := make([]byte, 512)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < (1<<20)/len(block); i++ {
				if _, err := f.Write(block); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 5<<18 {
				t.Fatalf("writing 1 MiB in 512-byte blocks allocated %d bytes, want <= 1.25 MiB", grew)
			}
		})
	}
}
