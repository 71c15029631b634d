package diskio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// fsFactories lets every test run against both filesystem backends.
func fsFactories(t *testing.T) map[string]func() FS {
	return map[string]func() FS{
		"mem": func() FS { return NewMemFS() },
		"dir": func() FS {
			d, err := NewDirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			keys := record.Uniform.Generate(1000, 1, 1)
			var c pdm.Counter
			acct := Accounting{Counter: &c}
			if err := WriteFile(fs, "a.keys", keys, 64, acct); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFileAll(fs, "a.keys", 64, acct)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(keys) {
				t.Fatalf("read %d keys want %d", len(got), len(keys))
			}
			for i := range keys {
				if got[i] != keys[i] {
					t.Fatalf("key %d mismatch", i)
				}
			}
		})
	}
}

func TestWriterBlockAccounting(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	var c pdm.Counter
	w := NewWriter(f, 10, Accounting{Counter: &c})
	// 25 keys at block 10 = 2 full + 1 partial = 3 block writes.
	if err := w.WriteKeys(make([]record.Key, 25)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Writes() != 3 {
		t.Fatalf("writes=%d want 3", c.Writes())
	}
	if w.KeysWritten() != 25 {
		t.Fatalf("KeysWritten=%d", w.KeysWritten())
	}
}

func TestReaderBlockAccounting(t *testing.T) {
	fs := NewMemFS()
	var c pdm.Counter
	acct := Accounting{Counter: &c}
	if err := WriteFile(fs, "x", make([]record.Key, 25), 10, acct); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if _, err := ReadFileAll(fs, "x", 10, acct); err != nil {
		t.Fatal(err)
	}
	if c.Reads() != 3 {
		t.Fatalf("reads=%d want 3", c.Reads())
	}
}

func TestWriterEmptyClose(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	var c pdm.Counter
	w := NewWriter(f, 8, Accounting{Counter: &c})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Writes() != 0 {
		t.Fatal("empty writer must not write blocks")
	}
}

func TestReadKeyByKey(t *testing.T) {
	fs := NewMemFS()
	keys := []record.Key{10, 20, 30}
	if err := WriteFile(fs, "x", keys, 2, Accounting{}); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("x")
	r := NewReader(f, 2, Accounting{})
	for _, want := range keys {
		k, err := r.ReadKey()
		if err != nil || k != want {
			t.Fatalf("ReadKey=%d,%v want %d", k, err, want)
		}
	}
	if _, err := r.ReadKey(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReadKeyAt(t *testing.T) {
	fs := NewMemFS()
	keys := []record.Key{5, 6, 7, 8, 9}
	if err := WriteFile(fs, "x", keys, 2, Accounting{}); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("x")
	defer f.Close()
	var c pdm.Counter
	acct := Accounting{Counter: &c}
	for idx, want := range []record.Key{5, 6, 7, 8, 9} {
		k, err := ReadKeyAt(f, int64(idx), acct)
		if err != nil || k != want {
			t.Fatalf("ReadKeyAt(%d)=%d,%v want %d", idx, k, err, want)
		}
	}
	if c.Seeks() != 5 || c.Reads() != 5 {
		t.Fatalf("accounting: %v", c.Snapshot())
	}
}

func TestCountKeys(t *testing.T) {
	fs := NewMemFS()
	if err := WriteFile(fs, "x", make([]record.Key, 123), 16, Accounting{}); err != nil {
		t.Fatal(err)
	}
	n, err := CountKeys(fs, "x")
	if err != nil || n != 123 {
		t.Fatalf("CountKeys=%d,%v", n, err)
	}
}

func TestCountKeysRagged(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	f.Write([]byte{1, 2, 3})
	f.Close()
	if _, err := CountKeys(fs, "x"); err == nil {
		t.Fatal("expected ragged-size error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	fs := NewMemFS()
	i := 0
	f := func(keys []record.Key, blockRaw uint8) bool {
		i++
		block := int(blockRaw%32) + 1
		name := "prop"
		if err := WriteFile(fs, name, keys, block, Accounting{}); err != nil {
			return false
		}
		got, err := ReadFileAll(fs, name, block, Accounting{})
		if err != nil || len(got) != len(keys) {
			return false
		}
		for j := range keys {
			if got[j] != keys[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirFSRejectsEscapingNames(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "/abs", "../escape", "a/../../b"} {
		if _, err := d.Create(bad); err == nil {
			t.Errorf("Create(%q) should fail", bad)
		}
	}
}

func TestDirFSSubdirectories(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := d.Create("node0/run1")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1})
	f.Close()
	names, err := d.Names()
	if err != nil || len(names) != 1 {
		t.Fatalf("Names=%v,%v", names, err)
	}
}

func TestFSRemove(t *testing.T) {
	for name, mk := range fsFactories(t) {
		t.Run(name, func(t *testing.T) {
			fs := mk()
			if err := WriteFile(fs, "x", []record.Key{1}, 4, Accounting{}); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove("x"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("x"); err == nil {
				t.Fatal("file still present after Remove")
			}
		})
	}
}

func TestMemFSOpenMissing(t *testing.T) {
	fs := NewMemFS()
	if _, err := fs.Open("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if err := fs.Remove("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestFaultFSFailsAfterBudget(t *testing.T) {
	inner := NewMemFS()
	ffs := NewFaultFS(inner, 3)
	f, err := ffs.Create("x") // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1}); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{2}); err != nil { // op 3
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{3}); !errors.Is(err, ErrInjected) { // op 4: fails
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if _, err := ffs.Open("x"); !errors.Is(err, ErrInjected) {
		t.Fatal("subsequent ops must keep failing")
	}
}

func TestFaultFSNeverFailsWhenNegative(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), -1)
	if err := WriteFile(ffs, "x", make([]record.Key, 100), 8, Accounting{}); err != nil {
		t.Fatal(err)
	}
}

// TestReadChunkEndOfInputProtocol pins the one chunk-loop contract: a
// full chunk, then the short tail, then (0, nil) at end of input — and a
// fault on the first block of a chunk comes back as the error, never as
// an empty chunk a loop would take for the end of the file.
func TestReadChunkEndOfInputProtocol(t *testing.T) {
	inner := NewMemFS()
	if err := WriteFile(inner, "x", make([]record.Key, 20), 4, Accounting{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]record.Key, 8) // a multiple of the block: every chunk starts on a block read
	for _, overlapped := range []bool{false, true} {
		f, err := inner.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(f, 4, Accounting{Meter: vtime.Nop{}, Overlap: Overlap{Enabled: overlapped}})
		for i, want := range []int{8, 8, 4, 0, 0} {
			if n, err := ReadChunk(r, buf); n != want || err != nil {
				t.Fatalf("overlap=%v chunk %d: got (%d, %v), want (%d, nil)", overlapped, i, n, err, want)
			}
		}
		r.Release()
		f.Close()
	}

	ffs := NewFaultFS(inner, -1)
	f, err := ffs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := NewReader(f, 4, Accounting{})
	defer r.Release()
	if n, err := ReadChunk(r, buf); n != 8 || err != nil {
		t.Fatalf("first chunk: got (%d, %v)", n, err)
	}
	ffs.FailAfter, ffs.FailCount = 0, 1 // the next read faults once
	if n, err := ReadChunk(r, buf); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("faulted chunk: got (%d, %v), want (0, ErrInjected)", n, err)
	}
}

func TestWriterSurfacesInjectedFault(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), 1) // allow Create only
	f, err := ffs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, 2, Accounting{})
	err = w.WriteKeys(make([]record.Key, 10))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	// The writer must stay failed.
	if err := w.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close after failure: %v", err)
	}
}

func TestReaderTruncatedKey(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	f.Write([]byte{1, 2, 3, 4, 5}) // 1 key + 1 stray byte
	f.Close()
	g, _ := fs.Open("x")
	r := NewReader(g, 4, Accounting{})
	_, err := r.ReadKey() // block read picks up ragged tail
	if err == nil {
		t.Fatal("expected truncated-key error")
	}
}

func TestNamesSorted(t *testing.T) {
	fs := NewMemFS()
	for _, n := range []string{"c", "a", "b"} {
		WriteFile(fs, n, nil, 4, Accounting{})
	}
	names, err := fs.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Fatalf("Names=%v", names)
	}
}

func TestTransientFaultFSRecovers(t *testing.T) {
	ffs := NewTransientFaultFS(NewMemFS(), 2, 3)
	f, err := ffs.Create("x") // op 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4}); err != nil { // op 2
		t.Fatal(err)
	}
	// Ops 3..5 are the transient window: all must fail.
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte{9}); !errors.Is(err, ErrInjected) {
			t.Fatalf("op %d: want injected fault, got %v", 3+i, err)
		}
	}
	// The device has recovered.
	if _, err := f.Write([]byte{5, 6, 7, 8}); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if got := ffs.Injected(); got != 3 {
		t.Fatalf("Injected() = %d, want 3", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPermanentFaultFSInjectedCounter(t *testing.T) {
	ffs := NewFaultFS(NewMemFS(), 0)
	if _, err := ffs.Create("x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if _, err := ffs.Open("x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if got := ffs.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestFaultFSFullInterface(t *testing.T) {
	inner := NewMemFS()
	WriteFile(inner, "x", []record.Key{1, 2}, 4, Accounting{})
	ffs := NewFaultFS(inner, 100)
	f, err := ffs.Open("x") // op 1
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.Read(buf); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil { // op 3
		t.Fatal(err)
	}
	if err := ffs.Rename("x", "y"); err != nil { // op 4
		t.Fatal(err)
	}
	if err := ffs.Remove("y"); err != nil { // op 5
		t.Fatal(err)
	}
	if names, err := ffs.Names(); err != nil || len(names) != 0 {
		t.Fatalf("Names=%v,%v", names, err)
	}
	if ffs.Ops() != 5 {
		t.Fatalf("Ops=%d", ffs.Ops())
	}
}

// TestWriterWriteKeySingle: single-key writes append into the same
// block buffer as longer ones, so the two interleave freely; a block
// goes out exactly when it fills, and a closed or failed writer refuses
// the key.
func TestWriterWriteKeySingle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ops    [][]record.Key // one WriteKeys call each
		writes []int64        // block writes charged after each op
	}{
		{"keys only", [][]record.Key{{3}, {1}, {2}}, []int64{0, 1, 1}},
		{"across a block boundary", [][]record.Key{{3}, {1, 2, 7}, {9}, {4}}, []int64{0, 2, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewMemFS()
			f, _ := fs.Create("x")
			var c pdm.Counter
			w := NewWriter(f, 2, Accounting{Counter: &c})
			var want []record.Key
			for i, op := range tc.ops {
				if err := w.WriteKeys(op); err != nil {
					t.Fatal(err)
				}
				want = append(want, op...)
				if c.Writes() != tc.writes[i] {
					t.Fatalf("after op %d: %d block writes, want %d", i, c.Writes(), tc.writes[i])
				}
			}
			if w.KeysWritten() != int64(len(want)) {
				t.Fatalf("KeysWritten=%d want %d", w.KeysWritten(), len(want))
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if wantBlocks := int64(len(want)+1) / 2; c.Writes() != wantBlocks {
				t.Fatalf("writes=%d want %d", c.Writes(), wantBlocks)
			}
			got, _ := ReadFileAll(fs, "x", 2, Accounting{})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("got %v want %v", got, want)
			}
			if err := w.WriteKeys([]record.Key{1}); err == nil {
				t.Fatal("WriteKeys on a closed Writer succeeded")
			}
		})
	}

	ffs := NewFaultFS(NewMemFS(), 1) // allow Create only
	f, err := ffs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, 2, Accounting{})
	if err := w.WriteKeys([]record.Key{1}); err != nil {
		t.Fatalf("buffered key: %v", err)
	}
	if err := w.WriteKeys([]record.Key{2}); !errors.Is(err, ErrInjected) {
		t.Fatalf("key that fills the block: want ErrInjected, got %v", err)
	}
	if err := w.WriteKeys([]record.Key{3}); !errors.Is(err, ErrInjected) {
		t.Fatalf("failed writer took another key: %v", err)
	}
}

func TestDirFSRootAndName(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() != dir {
		t.Fatalf("Root=%q", d.Root())
	}
	f, err := d.Create("file")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Name() != "file" {
		t.Fatalf("Name=%q", f.Name())
	}
}

func TestNewWriterReaderPanicOnBadBlock(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("x")
	defer f.Close()
	for _, fn := range []func(){
		func() { NewWriter(f, 0, Accounting{}) },
		func() { NewReader(f, -1, Accounting{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestReleaseAllocatesNothing: once the pools are warm, a Reader's read
// and Release allocate nothing — Release returns its buffers to the page
// pool unboxed, and a read after it reports a preallocated error — so a
// NewReader/read/Release cycle allocates the Reader alone.
func TestReleaseAllocatesNothing(t *testing.T) {
	fs := NewMemFS()
	if err := WriteFile(fs, "f", record.Uniform.Generate(256, 1, 1), 64, Accounting{}); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const runs = 100
	NewReader(f, 64, Accounting{}).Release() // warm the pools
	readers := make([]*Reader, runs+1)       // AllocsPerRun calls its function once more
	for i := range readers {
		readers[i] = NewReader(f, 64, Accounting{})
	}
	allocs := testing.AllocsPerRun(runs, func() {
		r := readers[0]
		readers = readers[1:]
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadKey(); err != nil {
			t.Fatal(err)
		}
		r.Release()
		if _, err := r.ReadKey(); err == nil {
			t.Fatal("read on released Reader succeeded")
		}
	})
	if allocs != 0 {
		t.Fatalf("a read and Release allocate %.1f times, want 0", allocs)
	}
}

func TestPoolStatsCountReuse(t *testing.T) {
	// Every acquisition counts once, as a hit or a miss (sync.Pool may
	// drop entries under GC pressure, so which one is not asserted).
	hits0, misses0 := PoolStats()
	b := getPage(1 << 12)
	putPage(b)
	getPage(1 << 12)
	hits, misses := PoolStats()
	if hits+misses != hits0+misses0+2 {
		t.Fatalf("two acquisitions counted %d times", hits+misses-hits0-misses0)
	}
	// MemFS pages come from the same pool: 100 KiB is pages 0, 1 and 2.
	f, _ := NewMemFS().Create("f")
	f.Write(make([]byte, 100<<10))
	if h, m := PoolStats(); h+m != hits+misses+3 {
		t.Fatalf("a 3-page file counted %d acquisitions", h+m-hits-misses)
	}
}

// TestMemFSSmallFileFootprint guards page 0's growth: a k-byte file
// holds at most max(512, 2k) bytes of pages however it was written,
// even with the pool full of 32 KiB pages.  Handing every small file a
// full page 0 from the pool would triple the peak memory of runs with
// thousands of tiny files (manifests, buckets of a few keys).
func TestMemFSSmallFileFootprint(t *testing.T) {
	fs := NewMemFS()
	for i := 0; i < 64; i++ {
		name := fmt.Sprint("big", i)
		f, _ := fs.Create(name)
		f.Write(make([]byte, memPage))
		f.Close()
	}
	for i := 0; i < 64; i++ {
		fs.Remove(fmt.Sprint("big", i))
	}
	for _, k := range []int{0, 1, 100, 511, 512, 513, 1000, 4096, 5000, 20_000, memPage - 1, memPage, memPage + 1, 100_000} {
		for _, chunk := range []int{k, 7, 300} {
			f, _ := fs.Create("f")
			for left := k; left > 0; left -= chunk {
				f.Write(make([]byte, min(chunk, left)))
			}
			f.Close()
			held := 0
			for _, pg := range fs.files["f"].pages {
				held += cap(pg)
			}
			if held > max(512, 2*k) {
				t.Errorf("a %d-byte file written %d bytes at a time holds %d bytes of pages", k, chunk, held)
			}
		}
	}
}

// TestMemFSRecyclesUnderConcurrency races the two sides of a page
// handoff: writers replace and remove a multi-page file while readers
// open, read and close it.  Every read must see one whole version, and
// once the last name is removed every page is back in the pool.
func TestMemFSRecyclesUnderConcurrency(t *testing.T) {
	fs := NewMemFS()
	before := MemFSPages()
	const size = 100 << 10 // pages 0, 1 and 2
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				err := ReplaceFile(fs, "f", func(f io.Writer) error {
					_, err := f.Write(bytes.Repeat([]byte{byte(2*i + w)}, size))
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 9 {
					fs.Remove("f") // may lose the race to the other writer
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f, err := fs.Open("f")
				if err != nil {
					continue // removed just now
				}
				data, err := io.ReadAll(f)
				f.Close()
				if err != nil || len(data) != size || bytes.Count(data, data[:1]) != size {
					t.Errorf("a reader saw a torn file: %d bytes, %v", len(data), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	fs.Remove("f")
	if after := MemFSPages(); after != before {
		t.Fatalf("MemFS held %d pages before and %d after every file was removed", before, after)
	}
}

// writeLog records the length of every Write on its File.
type writeLog struct {
	File
	writes []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.File.Write(p)
}

// writeChunks writes keys through a Writer with the given block size in
// chunks of the given sizes, cycled: below, at and above a block, so
// that whole blocks go out both from the caller's slice and from the
// Writer's buffer.
func writeChunks(t *testing.T, f File, keys []record.Key, block int, chunks []int) {
	t.Helper()
	w := NewWriter(f, block, Accounting{})
	for i := 0; len(keys) > 0; i++ {
		n := min(chunks[i%len(chunks)], len(keys))
		if err := w.WriteKeys(keys[:n]); err != nil {
			t.Fatal(err)
		}
		keys = keys[n:]
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterOneWritePerBlock: however the keys arrive, the file sees one
// Write of a whole block per block and one for the final partial block,
// and the caller's keys are left as they were.
func TestWriterOneWritePerBlock(t *testing.T) {
	const block = 64
	keys := record.Uniform.Generate(1000, 7, 1)
	orig := slices.Clone(keys)
	fs := NewMemFS()
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	log := &writeLog{File: f}
	writeChunks(t, log, keys, block, []int{1, 64, 200, 63, 128, 5})
	f.Close()
	want := make([]int, 0, len(keys)/block+1)
	for n := len(keys); n > 0; n -= block {
		want = append(want, min(n, block)*record.KeySize)
	}
	if !slices.Equal(log.writes, want) {
		t.Fatalf("Write sizes %v, want %v", log.writes, want)
	}
	if !slices.Equal(keys, orig) {
		t.Fatal("the Writer changed the caller's keys")
	}
	got, err := ReadFileAll(fs, "x", block, Accounting{})
	if err != nil || !slices.Equal(got, keys) {
		t.Fatalf("read back %d keys (%v), want the %d written", len(got), err, len(keys))
	}
}

// TestDirFSFileIsLittleEndian: a key file on a DirFS is the keys as
// little-endian uint32 values and nothing else, whether WriteFile wrote
// it in one call or a Writer got it in chunks of every size.
func TestDirFSFileIsLittleEndian(t *testing.T) {
	d, err := NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := record.Uniform.Generate(1000, 8, 1)
	keys[0], keys[1] = 0x04030201, 0xffffffff
	if err := WriteFile(d, "whole", keys, 64, Accounting{}); err != nil {
		t.Fatal(err)
	}
	f, err := d.Create("chunked")
	if err != nil {
		t.Fatal(err)
	}
	writeChunks(t, f, keys, 64, []int{3, 64, 130, 61})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"whole", "chunked"} {
		raw, err := os.ReadFile(filepath.Join(d.Root(), name))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != len(keys)*record.KeySize {
			t.Fatalf("%s: %d bytes, want %d", name, len(raw), len(keys)*record.KeySize)
		}
		for i, k := range keys {
			if got := binary.LittleEndian.Uint32(raw[i*record.KeySize:]); got != k {
				t.Fatalf("%s: key %d reads %#x, want %#x", name, i, got, k)
			}
		}
	}
}

// callLog records every Read and Seek on its File, with what it returned.
type callLog struct {
	File
	calls []string
}

func (c *callLog) Read(p []byte) (int, error) {
	n, err := c.File.Read(p)
	c.calls = append(c.calls, fmt.Sprintf("read %d: %d %v", len(p), n, err))
	return n, err
}

func (c *callLog) Seek(off int64, whence int) (int64, error) {
	at, err := c.File.Seek(off, whence)
	c.calls = append(c.calls, fmt.Sprintf("seek %d %d: %d %v", off, whence, at, err))
	return at, err
}

// TestReadKeysDirectMatchesBuffered: ReadKeys into a slice with room for
// whole blocks reads them straight into it, and the file and the meter
// cannot tell: the same Read and Seek calls, the same charges on the same
// member disks, the same keys and the same final error as reading the
// stream key by key through the Reader's buffer — on a whole file with a
// ragged last block, on a section, on a section the file ends inside, and
// with a fault at the third block's read.
func TestReadKeysDirectMatchesBuffered(t *testing.T) {
	const block = 16
	keys := record.Uniform.Generate(5*block+3, 11, 1)
	cases := []struct {
		name      string
		sec       Section
		failAfter int64 // FaultFS budget; negative: no fault
	}{
		{"whole file", Section{Name: "x", Keys: -1}, -1},
		{"section", Section{Name: "x", Off: 7, Keys: 3*block + 5}, -1},
		{"section past the end", Section{Name: "x", Off: 9, Keys: 5 * block}, -1},
		{"fault at block 3", Section{Name: "x", Keys: -1}, 3},
	}
	type outcome struct {
		keys    []record.Key
		calls   []string
		charges map[int]int64
		reads   []int64
		err     string
		held    int // the most keys the Reader's buffer held after a ReadKeys of whole blocks
	}
	run := func(t *testing.T, sec Section, failAfter int64, chunk int) outcome {
		var o outcome
		fs := NewFaultFS(NewMemFS(), -1)
		if err := WriteFile(fs, "x", keys, block, Accounting{}); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Open("x")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fs.FailAfter = fs.Ops() + failAfter
		if failAfter < 0 {
			fs.FailAfter = -1
		}
		meter := newDiskMeter()
		acct, node, perDisk := diskAcct(3, block, meter)
		log := &callLog{File: f}
		r := NewReader(log, block, acct)
		defer r.Release()
		if sec.Keys >= 0 {
			r.Seek(sec)
		}
		for {
			var n int
			if chunk == 0 {
				var k record.Key
				if k, err = r.ReadKey(); err == nil {
					o.keys, n = append(o.keys, k), 1
				}
			} else {
				dst := make([]record.Key, chunk)
				n, err = r.ReadKeys(dst)
				o.keys = append(o.keys, dst[:n]...)
				if chunk%block == 0 {
					o.held = max(o.held, len(r.keys))
				}
			}
			if err != nil || n == 0 {
				break
			}
		}
		if err != nil {
			o.err = err.Error()
		}
		o.calls, o.charges = log.calls, meter.blocks
		o.reads = append(o.reads, node.Snapshot().Reads)
		for _, d := range perDisk {
			o.reads = append(o.reads, d.Snapshot().Reads)
		}
		return o
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := run(t, c.sec, c.failAfter, 0)
			if want.err == "" {
				t.Fatal("the key-by-key read ended without an error")
			}
			for _, chunk := range []int{block - 1, block, block + 1, 3*block + 5} {
				got := run(t, c.sec, c.failAfter, chunk)
				id := fmt.Sprintf("chunk %d", chunk)
				if !slices.Equal(got.keys, want.keys) {
					t.Errorf("%s: read %d keys, key by key %d, or other keys", id, len(got.keys), len(want.keys))
				}
				if !slices.Equal(got.calls, want.calls) {
					t.Errorf("%s: file calls\n%q\nkey by key\n%q", id, got.calls, want.calls)
				}
				if !reflect.DeepEqual(got.charges, want.charges) || !slices.Equal(got.reads, want.reads) {
					t.Errorf("%s: charges %v, counters %v; key by key %v, %v", id, got.charges, got.reads, want.charges, want.reads)
				}
				if got.err != want.err {
					t.Errorf("%s: ended with %q, key by key %q", id, got.err, want.err)
				}
				if got.held != 0 {
					t.Errorf("%s: the Reader buffered %d keys of a block read into the caller's slice", id, got.held)
				}
			}
		})
	}
}
