package diskio

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// Block buffers are recycled across Readers and Writers: a sort opens
// and closes thousands of short-lived block streams (one per run, per
// tape, per segment), and the per-stream block allocations dominated the
// allocation profile.  The pools hand back any buffer with enough
// capacity; block sizes within one run are uniform, so hit rates are
// high.
var (
	byteBufPool sync.Pool // []byte block buffers
	keyBufPool  sync.Pool // []record.Key decode buffers

	poolHits   atomic.Int64 // buffers served from a pool
	poolMisses atomic.Int64 // fresh allocations (empty pool or too small)
)

// PoolStats reports the process-wide block-buffer pool behaviour: hits
// (a pooled buffer with enough capacity was reused) and misses (a fresh
// buffer had to be allocated).  The pools are shared by every simulated
// node, so these are process-level observability numbers, not per-node
// virtual-time quantities.
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// ResetPoolStats zeroes the pool counters (between benchmark runs).
func ResetPoolStats() {
	poolHits.Store(0)
	poolMisses.Store(0)
}

func getByteBuf(n int) []byte {
	if v := byteBufPool.Get(); v != nil {
		if b := v.([]byte); cap(b) >= n {
			poolHits.Add(1)
			return b[:n]
		}
	}
	poolMisses.Add(1)
	return make([]byte, n)
}

func putByteBuf(b []byte) {
	if cap(b) > 0 {
		byteBufPool.Put(b[:0]) //nolint:staticcheck // slice header alloc is fine
	}
}

func getKeyBuf(n int) []record.Key {
	if v := keyBufPool.Get(); v != nil {
		if b := v.([]record.Key); cap(b) >= n {
			poolHits.Add(1)
			return b[:0]
		}
	}
	poolMisses.Add(1)
	return make([]record.Key, 0, n)
}

func putKeyBuf(b []record.Key) {
	if cap(b) > 0 {
		keyBufPool.Put(b[:0]) //nolint:staticcheck
	}
}

// Accounting bundles the sinks every block transfer reports to: the
// PDM I/O counter (complexity accounting), the virtual-time meter
// (simulated-clock accounting), and optionally one counter per member
// disk of a striped node.  Any field may be nil/empty.  Every transfer
// bumps both the node Counter and the serving disk's counter, so the
// per-disk counters always sum exactly to the node counter.
type Accounting struct {
	Counter *pdm.Counter
	Meter   vtime.Meter
	// Disks holds one counter per member disk; transfers on files that
	// implement Placed are attributed to the disk serving the block's
	// offset, everything else to disk 0.
	Disks []*pdm.Counter
}

// disk returns the per-disk counter for d, clamping unknown indices to
// disk 0 so plain files on a multi-disk node still account somewhere.
func (a Accounting) disk(d int) *pdm.Counter {
	if len(a.Disks) == 0 {
		return nil
	}
	if d < 0 || d >= len(a.Disks) {
		d = 0
	}
	return a.Disks[d]
}

func (a Accounting) read(d int, blocks int64) {
	if a.Counter != nil {
		a.Counter.AddRead(blocks)
	}
	if c := a.disk(d); c != nil {
		c.AddRead(blocks)
	}
	if dm, ok := a.Meter.(vtime.DiskMeter); ok {
		dm.ChargeDiskIOBlocks(d, blocks)
	} else if a.Meter != nil {
		a.Meter.ChargeIOBlocks(blocks)
	}
}

func (a Accounting) write(d int, blocks int64) {
	if a.Counter != nil {
		a.Counter.AddWrite(blocks)
	}
	if c := a.disk(d); c != nil {
		c.AddWrite(blocks)
	}
	if dm, ok := a.Meter.(vtime.DiskMeter); ok {
		dm.ChargeDiskIOBlocks(d, blocks)
	} else if a.Meter != nil {
		a.Meter.ChargeIOBlocks(blocks)
	}
}

func (a Accounting) seek(d int, n int64) {
	if a.Counter != nil {
		a.Counter.AddSeek(n)
	}
	if c := a.disk(d); c != nil {
		c.AddSeek(n)
	}
	if dm, ok := a.Meter.(vtime.DiskMeter); ok {
		dm.ChargeDiskSeek(d, n)
	} else if a.Meter != nil {
		a.Meter.ChargeSeek(n)
	}
}

// ChargeRead, ChargeWrite and ChargeSeek record block transfers and
// seeks performed outside the package's readers and writers (manifest
// saves, hashing passes), attributed to member disk d (use 0 when the
// placement is unknown).  They keep the node counter, the per-disk
// counters and the meter in lockstep, like every internal transfer.
func (a Accounting) ChargeRead(d int, blocks int64)  { a.read(d, blocks) }
func (a Accounting) ChargeWrite(d int, blocks int64) { a.write(d, blocks) }
func (a Accounting) ChargeSeek(d int, n int64)       { a.seek(d, n) }

// DiskAt reports which member disk serves the byte at off in f: files
// that implement Placed answer for themselves, everything else lives
// entirely on disk 0.
func DiskAt(f File, off int64) int {
	if p, ok := f.(Placed); ok {
		return p.DiskAt(off)
	}
	return 0
}

// Writer streams keys to a file in blocks of BlockSize keys, charging
// the accounting sinks one block write per block (a final partial block
// counts as one whole transfer, as in the PDM).
type Writer struct {
	f      File
	acct   Accounting
	placed Placed // non-nil when f knows its disk placement
	off    int64  // byte offset of the next block written
	block  int    // keys per block
	buf    []byte
	n      int   // keys buffered
	total  int64 // keys written overall
	closed bool
	err    error
}

var errWriterClosed = fmt.Errorf("diskio: write on closed Writer")

// NewWriter returns a Writer on f with the given block size in keys.
func NewWriter(f File, blockKeys int, acct Accounting) *Writer {
	if blockKeys <= 0 {
		panic("diskio: block size must be positive")
	}
	w := &Writer{
		f:     f,
		acct:  acct,
		block: blockKeys,
		buf:   getByteBuf(blockKeys * record.KeySize)[:0],
	}
	w.placed, w.off = placement(f)
	return w
}

// WriteKeys appends keys to the stream.
func (w *Writer) WriteKeys(keys []record.Key) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errWriterClosed
	}
	for len(keys) > 0 {
		room := w.block - w.n
		take := len(keys)
		if take > room {
			take = room
		}
		w.buf = record.EncodeKeys(w.buf, keys[:take])
		w.n += take
		w.total += int64(take)
		keys = keys[take:]
		if w.n == w.block {
			if err := w.flushBlock(); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteKey appends a single key.
func (w *Writer) WriteKey(k record.Key) error {
	return w.WriteKeys([]record.Key{k})
}

func (w *Writer) flushBlock() error {
	if w.n == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("diskio: writing block: %w", err)
		return w.err
	}
	d := 0
	if w.placed != nil {
		d = w.placed.DiskAt(w.off)
	}
	w.off += int64(len(w.buf))
	w.acct.write(d, 1)
	w.buf = w.buf[:0]
	w.n = 0
	return nil
}

// KeysWritten returns the number of keys accepted so far.
func (w *Writer) KeysWritten() int64 { return w.total }

// Close flushes the final partial block and returns the block buffer to
// the pool.  It does not close the underlying file handle; the caller
// owns it.  Close is idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	err := w.err
	if err == nil {
		err = w.flushBlock()
	}
	w.closed = true
	putByteBuf(w.buf)
	w.buf = nil
	return err
}

// Reader streams keys from a file in blocks of BlockSize keys, charging
// one block read per block fetched.
type Reader struct {
	f      File
	acct   Accounting
	placed Placed // non-nil when f knows its disk placement
	off    int64  // byte offset of the next block read
	block  int
	buf    []byte
	keys   []record.Key
	pos    int
	err    error
}

// placement inspects f for striped disk placement: the Placed view and
// the handle's current byte position (so readers and writers opened
// mid-file attribute blocks to the right member disk).  Plain files get
// a nil Placed; their blocks all land on disk 0.
func placement(f File) (Placed, int64) {
	p, ok := f.(Placed)
	if !ok {
		return nil, 0
	}
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, 0
	}
	return p, off
}

// NewReader returns a Reader on f with the given block size in keys.
func NewReader(f File, blockKeys int, acct Accounting) *Reader {
	if blockKeys <= 0 {
		panic("diskio: block size must be positive")
	}
	r := &Reader{
		f:     f,
		acct:  acct,
		block: blockKeys,
		buf:   getByteBuf(blockKeys * record.KeySize),
		keys:  getKeyBuf(blockKeys),
	}
	r.placed, r.off = placement(f)
	return r
}

func (r *Reader) fill() error {
	if r.err != nil {
		return r.err
	}
	n, err := io.ReadFull(r.f, r.buf)
	if n > 0 {
		if n%record.KeySize != 0 {
			r.err = fmt.Errorf("diskio: truncated key at end of %s", r.f.Name())
			return r.err
		}
		d := 0
		if r.placed != nil {
			d = r.placed.DiskAt(r.off)
		}
		r.off += int64(n)
		r.acct.read(d, 1)
		r.keys = record.DecodeKeys(r.keys[:0], r.buf[:n])
		r.pos = 0
		return nil
	}
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	if err == nil {
		err = io.EOF
	}
	r.err = err
	return err
}

// Buffered returns the keys decoded but not yet consumed.  The slice is
// valid until the next Fill, ReadKey or ReadKeys call.
func (r *Reader) Buffered() []record.Key { return r.keys[r.pos:] }

// Discard consumes the first n buffered keys.
func (r *Reader) Discard(n int) { r.pos += n }

// Fill decodes the next block once the buffer is empty, charging one
// block read; io.EOF when the file is exhausted.  Together with
// Buffered and Discard this satisfies polyphase.MergeSource.
func (r *Reader) Fill() error {
	if r.pos < len(r.keys) {
		return nil
	}
	return r.fill()
}

// Release returns the Reader's block buffers to the pool.  The Reader
// must not be used afterwards; further reads fail cleanly.
func (r *Reader) Release() {
	putByteBuf(r.buf)
	putKeyBuf(r.keys)
	r.buf, r.keys, r.pos = nil, nil, 0
	if r.err == nil {
		r.err = fmt.Errorf("diskio: read on released Reader")
	}
}

// ReadKey returns the next key, or io.EOF when the stream is exhausted.
func (r *Reader) ReadKey() (record.Key, error) {
	if r.pos >= len(r.keys) {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	k := r.keys[r.pos]
	r.pos++
	return k, nil
}

// ReadKeys fills dst with up to len(dst) keys and returns how many were
// read.  It returns io.EOF (with n possibly > 0 on a short final read
// being impossible: EOF is only returned with n==0 once exhausted).
func (r *Reader) ReadKeys(dst []record.Key) (int, error) {
	n := 0
	for n < len(dst) {
		if r.pos >= len(r.keys) {
			if err := r.fill(); err != nil {
				if n > 0 && err == io.EOF {
					return n, nil
				}
				return n, err
			}
		}
		c := copy(dst[n:], r.keys[r.pos:])
		r.pos += c
		n += c
	}
	return n, nil
}

// ReadChunk is the one end-of-input protocol for chunk loops over a
// BlockReader: it fills dst like ReadKeys and returns the count, with 0
// keys and a nil error meaning the input is exhausted.  Every other
// error is returned as is — also when it struck before the chunk's first
// key, where ReadKeys reports (0, err) and a loop that tests the count
// first would mistake a read fault for the end of the file.
func ReadChunk(r BlockReader, dst []record.Key) (int, error) {
	n, err := r.ReadKeys(dst)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// ReadKeyAt reads the key at index idx (in keys) from f, charging one
// seek and one block read.  The file position afterwards is undefined.
// This is the access pattern of the pivot-sampling step (paper step 2).
func ReadKeyAt(f File, idx int64, acct Accounting) (record.Key, error) {
	if _, err := f.Seek(idx*record.KeySize, io.SeekStart); err != nil {
		return 0, fmt.Errorf("diskio: seek to key %d: %w", idx, err)
	}
	d := DiskAt(f, idx*record.KeySize)
	acct.seek(d, 1)
	var buf [record.KeySize]byte
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		return 0, fmt.Errorf("diskio: read key %d: %w", idx, err)
	}
	acct.read(d, 1)
	return record.GetKey(buf[:]), nil
}

// WriteFile creates name on fs and writes all keys to it in blocks.
func WriteFile(fs FS, name string, keys []record.Key, blockKeys int, acct Accounting) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	w := NewWriter(f, blockKeys, acct)
	if err := w.WriteKeys(keys); err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFileAll opens name on fs and reads every key.
func ReadFileAll(fs FS, name string, blockKeys int, acct Accounting) ([]record.Key, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := NewReader(f, blockKeys, acct)
	var out []record.Key
	buf := make([]record.Key, blockKeys)
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

// CountKeys returns the number of keys stored in name by seeking to the
// end (no block transfers are charged; file length is metadata).
func CountKeys(fs FS, name string) (int64, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sz, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if sz%record.KeySize != 0 {
		return 0, fmt.Errorf("diskio: %s has ragged size %d", name, sz)
	}
	return sz / record.KeySize, nil
}
