package diskio

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// Block buffers are recycled across Readers and Writers: a sort opens
// and closes thousands of short-lived block streams (one per run, per
// tape, per segment), whose block allocations dominated the allocation
// profile.  A stream's one key buffer comes from the page pool (getKeys).
var (
	poolHits   atomic.Int64 // buffers served from a pool
	poolMisses atomic.Int64 // fresh allocations (empty pool or too small)
)

// PoolStats reports the process-wide buffer pool behaviour, over MemFS
// pages and block buffers alike: hits (a pooled buffer was reused) and
// misses (a fresh buffer had to be allocated).  The pools are shared by
// every simulated node, so these are process-level observability
// numbers, not per-node virtual-time quantities.
func PoolStats() (hits, misses int64) {
	return poolHits.Load(), poolMisses.Load()
}

// putKeys gives a key buffer back to the page pool.
func putKeys(k []record.Key) { putPage(record.Bytes(k[:cap(k)])) }

// Accounting bundles the sinks every block transfer reports to — the
// PDM I/O counter (complexity accounting), the virtual-time meter
// (simulated-clock accounting), optionally one counter per member disk
// of a D-disk node — and the two timing-only modes of the disk model:
// where a block lives among the D disks, and whether streams charge
// their blocks overlapped with compute.  Any field may be nil/empty.
// Every transfer bumps both the node Counter and the serving disk's
// counter, so the per-disk counters always sum exactly to the node
// counter.
type Accounting struct {
	Counter *pdm.Counter
	Meter   vtime.Meter
	// Disks holds one counter per member disk; its length is the PDM's
	// D.  Node files are plain files at every D: the member disk of a
	// block is a pure function of its byte offset (diskAt), the same
	// round-robin a striping controller would apply.
	Disks []*pdm.Counter
	// StripeBytes is the placement unit, one block of the node
	// (B·record.KeySize): the byte at offset off of any file is served
	// by member disk (off / StripeBytes) mod D.  Zero places every
	// block on disk 0.
	StripeBytes int64
	// Overlap, when enabled, makes the Readers and Writers built on
	// this accounting charge their blocks inside an overlap window of
	// the meter (see Overlap).  Direct charges stay synchronous.
	Overlap Overlap
}

// diskAt returns the member disk serving the byte at offset off.
func (a Accounting) diskAt(off int64) int {
	if len(a.Disks) <= 1 || a.StripeBytes <= 0 || off < 0 {
		return 0
	}
	return int(off / a.StripeBytes % int64(len(a.Disks)))
}

// transfer records the transfer of blocks blocks starting at byte offset
// off of a file: PDM counts on the node and member-disk counters, time
// on the meter — through the open overlap window om when the stream has
// one, else synchronously on the block's member disk.
func (a Accounting) transfer(off, blocks int64, write bool, om vtime.OverlapMeter) {
	d := a.diskAt(off)
	add := (*pdm.Counter).AddRead
	if write {
		add = (*pdm.Counter).AddWrite
	}
	if a.Counter != nil {
		add(a.Counter, blocks)
	}
	if len(a.Disks) > 0 {
		add(a.Disks[d], blocks)
	}
	if om != nil {
		om.ChargeOverlappedIOBlocks(blocks, write)
	} else if dm, ok := a.Meter.(vtime.DiskMeter); ok {
		dm.ChargeDiskIOBlocks(d, blocks)
	} else if a.Meter != nil {
		a.Meter.ChargeIOBlocks(blocks)
	}
}

// ChargeRead and ChargeWrite record synchronous block transfers
// performed outside the package's readers and writers (manifest saves,
// hashing passes) at byte offset off of their file.  They keep the node
// counter, the per-disk counters and the meter in lockstep, like every
// internal transfer.
func (a Accounting) ChargeRead(off, blocks int64)  { a.transfer(off, blocks, false, nil) }
func (a Accounting) ChargeWrite(off, blocks int64) { a.transfer(off, blocks, true, nil) }

// ChargeSeek records n repositionings to byte offset off of a file.
func (a Accounting) ChargeSeek(off, n int64) {
	d := a.diskAt(off)
	if a.Counter != nil {
		a.Counter.AddSeek(n)
	}
	if len(a.Disks) > 0 {
		a.Disks[d].AddSeek(n)
	}
	if dm, ok := a.Meter.(vtime.DiskMeter); ok {
		dm.ChargeDiskSeek(d, n)
	} else if a.Meter != nil {
		a.Meter.ChargeSeek(n)
	}
}

// openWindow opens an overlap window on the meter when the accounting is
// in overlapped mode and the meter models one.  The returned meter (nil
// otherwise) takes the stream's block charges until the stream closes
// the window with EndOverlap.
func (a Accounting) openWindow() vtime.OverlapMeter {
	om, ok := a.Meter.(vtime.OverlapMeter)
	if !a.Overlap.Enabled || !ok {
		return nil
	}
	om.BeginOverlap(a.Overlap.DepthFor(a.Meter))
	return om
}

// startOffset returns f's current byte position when block placement
// depends on it (D > 1), so streams opened mid-file attribute their
// blocks to the right member disk.
func (a Accounting) startOffset(f File) int64 {
	if len(a.Disks) <= 1 {
		return 0
	}
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0
	}
	return off
}

// Writer streams keys to a file in blocks of BlockSize keys, charging
// the accounting sinks one block write per block (a final partial block
// counts as one whole transfer, as in the PDM), each in one Write of its
// keys' bytes: the caller's, when they make a whole block and nothing is
// buffered, else the Writer's buffer.  Under acct.Overlap the charges go
// through an overlap window held from NewWriter to Close (write-behind:
// the drive drains blocks while the CPU produces more).
type Writer struct {
	f      File
	acct   Accounting
	om     vtime.OverlapMeter // open overlap window, nil when synchronous
	off    int64              // byte offset of the next block written
	block  int                // keys per block
	keys   []record.Key       // keys buffered, capacity block
	total  int64              // keys written overall
	closed bool
	err    error
}

var (
	errWriterClosed = errors.New("diskio: write on closed Writer")
	errReleased     = errors.New("diskio: read on released Reader")
)

// NewWriter returns a Writer on f with the given block size in keys.
func NewWriter(f File, blockKeys int, acct Accounting) *Writer {
	if blockKeys <= 0 {
		panic("diskio: block size must be positive")
	}
	return &Writer{
		f:     f,
		acct:  acct,
		block: blockKeys,
		keys:  getKeys(blockKeys)[:0],
		om:    acct.openWindow(),
		off:   acct.startOffset(f),
	}
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
		var err error
		take := min(len(keys), w.block-len(w.keys))
		w.total += int64(take)
		if take == w.block && record.HostLE {
			err = w.write(keys[:take]) // a whole block of the caller's, nothing buffered
		} else if w.keys = append(w.keys, keys[:take]...); len(w.keys) == w.block {
			err = w.flushBlock()
		}
		if err != nil {
			return err
		}
		keys = keys[take:]
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if len(w.keys) == 0 {
		return nil
	}
	record.DiskOrder(w.keys)
	err := w.write(w.keys)
	w.keys = w.keys[:0]
	return err
}

// write writes one block, keys, to the file as its bytes.
func (w *Writer) write(keys []record.Key) error {
	b := record.Bytes(keys)
	if _, err := w.f.Write(b); err != nil {
		w.err = fmt.Errorf("diskio: writing block: %w", err)
		return w.err
	}
	w.acct.transfer(w.off, 1, true, w.om)
	w.off += int64(len(b))
	return nil
}

// KeysWritten returns the number of keys accepted so far.
func (w *Writer) KeysWritten() int64 { return w.total }

// Close flushes the final partial block, closes the overlap window and
// returns the block buffer to the pool.  It does not close the
// underlying file handle; the caller owns it.  Close is idempotent.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	err := w.err
	if err == nil {
		err = w.flushBlock()
	}
	w.closed = true
	putKeys(w.keys)
	w.keys = nil
	if w.om != nil {
		w.om.EndOverlap()
	}
	return err
}

// Reader streams keys from a file in blocks of BlockSize keys, charging
// one block read per block fetched, each read straight into the bytes of
// its one key buffer or, by ReadKeys, of the caller's slice.  Under
// acct.Overlap the charges go through an overlap window held from
// NewReader to Release (prefetch: the drive reads ahead while the CPU
// consumes).
type Reader struct {
	f     File
	acct  Accounting
	om    vtime.OverlapMeter // open overlap window, nil when synchronous
	off   int64              // byte offset of the next block read
	left  int64              // keys still to fetch; negative: to the end of the file
	block int
	keys  []record.Key // the block read, capacity block
	pos   int
	err   error
}

// NewReader returns a Reader on f with the given block size in keys.
func NewReader(f File, blockKeys int, acct Accounting) *Reader {
	if blockKeys <= 0 {
		panic("diskio: block size must be positive")
	}
	return &Reader{
		f:     f,
		acct:  acct,
		block: blockKeys,
		keys:  getKeys(blockKeys)[:0],
		om:    acct.openWindow(),
		off:   acct.startOffset(f),
		left:  -1,
	}
}

// Section names a run of consecutive keys in a file: the Keys keys of
// Name from key index Off on, or the whole file when Keys is negative.  A
// sorted file cut at p−1 pivots is p sections, none of which needs a copy.
type Section struct {
	Name string `json:"name"`
	Off  int64  `json:"off"`
	Keys int64  `json:"keys"`
}

// Open opens the section's file on fs and returns it with a Reader that
// yields exactly the section's keys, in blocks counted from the section's
// start — ⌈Keys/B⌉ block reads, as if it were a file of its own — and
// fails if the file ends first.  Positioning is not charged as a seek, but
// every block is placed on the member disk of its absolute offset in the
// file.  The caller releases the Reader and closes the file.
func (s Section) Open(fs FS, blockKeys int, acct Accounting) (File, *Reader, error) {
	f, err := fs.Open(s.Name)
	if err != nil {
		return nil, nil, err
	}
	r := NewReader(f, blockKeys, acct)
	if s.Keys >= 0 {
		r.position(s)
	}
	return f, r, nil
}

// Seek repositions r onto section s of the file it reads, as Open would
// position a fresh Reader: the keys buffered are dropped and the section's
// blocks are counted from its start.  Under Overlap the section gets a
// window of its own, the one before closed first.  One handle then serves
// every section of a file.
func (r *Reader) Seek(s Section) {
	r.Idle()
	r.om = r.acct.openWindow()
	r.keys, r.pos, r.err = r.keys[:0], 0, nil
	r.position(s)
}

// Idle closes r's overlap window, as Release does, keeping the Reader for
// a later Seek.
func (r *Reader) Idle() {
	if r.om != nil {
		r.om.EndOverlap()
		r.om = nil
	}
}

// Readers keeps each file of FS open once, with one Reader: a section of
// a file already open is read by repositioning its Reader (Seek).  A
// caller idles a Reader once its section is read, so that it holds an
// overlap window only while it reads one, and a sequence of sections
// costs exactly what a Reader opened per section would.
type Readers struct {
	FS        FS
	BlockKeys int
	Acct      Accounting
	open      map[string]*readerFile
}

type readerFile struct {
	f File
	r *Reader // nil until a section is read
}

// File returns the named file, opened once.  Reading it directly (a
// probe) moves the file position, which its Reader's next Seek resets.
func (rs *Readers) File(name string) (File, error) {
	if h, ok := rs.open[name]; ok {
		return h.f, nil
	}
	f, err := rs.FS.Open(name)
	if err != nil {
		return nil, err
	}
	if rs.open == nil {
		rs.open = map[string]*readerFile{}
	}
	rs.open[name] = &readerFile{f: f}
	return f, nil
}

// Section returns the Reader of s's file positioned on s.
func (rs *Readers) Section(s Section) (*Reader, error) {
	f, err := rs.File(s.Name)
	if err != nil {
		return nil, err
	}
	h := rs.open[s.Name]
	if h.r == nil {
		h.r = NewReader(f, rs.BlockKeys, rs.Acct)
		h.r.position(s)
	} else {
		h.r.Seek(s)
	}
	return h.r, nil
}

// Drop releases the named file's Reader and closes the file, if open.
func (rs *Readers) Drop(name string) error {
	h, ok := rs.open[name]
	if !ok {
		return nil
	}
	delete(rs.open, name)
	if h.r != nil {
		h.r.Release()
	}
	return h.f.Close()
}

// Close drops every file; the first error wins.
func (rs *Readers) Close() (err error) {
	for name := range rs.open {
		if cerr := rs.Drop(name); err == nil {
			err = cerr
		}
	}
	return err
}

func (r *Reader) position(s Section) {
	r.off, r.left = max(s.Off, 0)*record.KeySize, s.Keys
	if _, err := r.f.Seek(r.off, io.SeekStart); err != nil {
		r.err = fmt.Errorf("diskio: seek to key %d of %s: %w", s.Off, s.Name, err)
	}
}

// fill reads the next block into dst, which has room for one, charging
// one block read, and returns the number of keys read; io.EOF when the
// file is exhausted.
func (r *Reader) fill(dst []record.Key) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.left == 0 {
		r.err = io.EOF
		return 0, r.err
	}
	want := record.Bytes(dst[:r.block])
	if lim := r.left * record.KeySize; r.left > 0 && lim < int64(len(want)) {
		want = want[:lim]
	}
	n, err := io.ReadFull(r.f, want)
	if r.left > 0 && n < len(want) && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		r.err = fmt.Errorf("diskio: %s ends %d keys short of the section read from it", r.f.Name(), r.left-int64(n/record.KeySize))
		return 0, r.err
	}
	if n > 0 {
		if n%record.KeySize != 0 {
			r.err = fmt.Errorf("diskio: truncated key at end of %s", r.f.Name())
			return 0, r.err
		}
		r.acct.transfer(r.off, 1, false, r.om)
		r.off += int64(n)
		k := n / record.KeySize
		if r.left > 0 {
			r.left -= int64(k)
		}
		record.DiskOrder(dst[:k])
		return k, nil
	}
	if err == nil || err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	r.err = err
	return 0, err
}

// refill reads the next block into the Reader's key buffer.
func (r *Reader) refill() error {
	k, err := r.fill(r.keys[:cap(r.keys)])
	r.keys, r.pos = r.keys[:k], 0
	return err
}

// Buffered returns the keys read but not yet consumed.  The slice is
// valid until the next Fill, ReadKey or ReadKeys call.
func (r *Reader) Buffered() []record.Key { return r.keys[r.pos:] }

// Discard consumes the first n buffered keys.
func (r *Reader) Discard(n int) { r.pos += n }

// Fill reads the next block once the buffer is empty, charging one
// block read; io.EOF when the file is exhausted.  Together with
// Buffered and Discard this satisfies polyphase.MergeSource.
func (r *Reader) Fill() error {
	if r.pos < len(r.keys) {
		return nil
	}
	return r.refill()
}

// Release closes the overlap window and returns the Reader's key
// buffer to the pool.  The Reader must not be used afterwards; further
// reads fail cleanly.  Release is idempotent.
func (r *Reader) Release() {
	putKeys(r.keys)
	r.keys, r.pos = nil, 0
	if r.err == nil {
		r.err = errReleased
	}
	r.Idle()
}

// ReadKey returns the next key, or io.EOF when the stream is exhausted.
func (r *Reader) ReadKey() (record.Key, error) {
	if r.pos >= len(r.keys) {
		if err := r.refill(); err != nil {
			return 0, err
		}
	}
	k := r.keys[r.pos]
	r.pos++
	return k, nil
}

// ReadKeys fills dst with up to len(dst) keys and returns how many were
// read.  It returns io.EOF (with n possibly > 0 on a short final read
// being impossible: EOF is only returned with n==0 once exhausted).  A
// block that finds nothing buffered and room for all of it in dst is
// read straight into dst, with the same File call and charge.
func (r *Reader) ReadKeys(dst []record.Key) (int, error) {
	n := 0
	for n < len(dst) {
		if r.pos < len(r.keys) {
			c := copy(dst[n:], r.keys[r.pos:])
			r.pos += c
			n += c
			continue
		}
		var err error
		if len(dst)-n >= r.block {
			var k int
			k, err = r.fill(dst[n:])
			n += k
		} else {
			err = r.refill()
		}
		if err != nil {
			if n > 0 && err == io.EOF {
				return n, nil
			}
			return n, err
		}
	}
	return n, nil
}

// ReadChunk is the one end-of-input protocol for chunk loops over a
// Reader: it fills dst like ReadKeys and returns the count, with 0
// keys and a nil error meaning the input is exhausted.  Every other
// error is returned as is — also when it struck before the chunk's first
// key, where ReadKeys reports (0, err) and a loop that tests the count
// first would mistake a read fault for the end of the file.
func ReadChunk(r *Reader, dst []record.Key) (int, error) {
	n, err := r.ReadKeys(dst)
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// ReadKeyAt reads the key at index idx (in keys) from f, charging one
// seek and one block read: ReadBlockAt of one key.  The file position
// afterwards is undefined.  This is the access pattern of the
// pivot-sampling step (paper step 2).
func ReadKeyAt(f File, idx int64, acct Accounting) (record.Key, error) {
	var k [1]record.Key
	_, err := ReadBlockAt(f, idx, 1, acct, k[:0])
	return k[0], err
}

// ReadBlockAt reads into keys (reused) the cnt ≤ B keys of f from index
// idx on, as one block: one seek and one block read charged, at the
// block's offset.  The file position afterwards is undefined.
func ReadBlockAt(f File, idx, cnt int64, acct Accounting, keys []record.Key) ([]record.Key, error) {
	off := idx * record.KeySize
	keys = slices.Grow(keys[:0], int(cnt))[:cnt]
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("diskio: seek to key %d: %w", idx, err)
	}
	if _, err := io.ReadFull(f, record.Bytes(keys)); err != nil {
		return nil, fmt.Errorf("diskio: read %d keys at %d: %w", cnt, idx, err)
	}
	acct.ChargeSeek(off, 1)
	acct.ChargeRead(off, 1)
	record.DiskOrder(keys)
	return keys, nil
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

// ReadFileAll opens name on fs and reads every key into a slice sized
// once from the file length.
func ReadFileAll(fs FS, name string, blockKeys int, acct Accounting) ([]record.Key, error) {
	f, r, err := Section{Name: name, Keys: -1}.Open(fs, blockKeys, acct)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	defer r.Release()
	count, err := keysIn(f)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, err
	}
	out := make([]record.Key, count)
	n, err := r.ReadKeys(out)
	if err != nil && err != io.EOF {
		return nil, err
	}
	return out[:n], nil
}

// CountKeys returns the number of keys stored in name by seeking to the
// end (no block transfers are charged; file length is metadata).
func CountKeys(fs FS, name string) (int64, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return keysIn(f)
}

// keysIn returns the number of keys in f, leaving the handle at its end.
func keysIn(f File) (int64, error) {
	sz, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	if sz%record.KeySize != 0 {
		return 0, fmt.Errorf("diskio: %s has ragged size %d", f.Name(), sz)
	}
	return sz / record.KeySize, nil
}
