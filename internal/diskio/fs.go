// Package diskio provides the block-granular disk layer under the
// external sorts.  All reads and writes move whole blocks of B keys; the
// layer charges a pdm.Counter (I/O complexity accounting) and a Meter
// (virtual-time accounting for the simulated cluster) on every block.
//
// Files are reached through the FS interface so tests can substitute an
// in-memory filesystem or inject faults; production code uses DirFS,
// which stores key files under a per-node scratch directory exactly like
// the paper's per-node /work partitions.
package diskio

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"hetsort/internal/record"
)

// File is the handle the sorters use: sequential read/write plus seek.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the name the file was created/opened with.
	Name() string
}

// FS creates, reopens and removes named files.  Implementations must be
// safe for concurrent use by different files; a single File handle is
// confined to one goroutine.
type FS interface {
	// Create makes (or truncates) the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading from the start.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically moves oldName to newName, replacing any
	// existing file (no data blocks are moved, so no I/O is charged —
	// the sorts use it to finalize their output tape).
	Rename(oldName, newName string) error
	// Names returns the existing file names in lexical order (for
	// tests and cleanup).
	Names() ([]string, error)
}

// DirFS is an FS rooted at a directory on the real filesystem.
type DirFS struct {
	root string
}

// NewDirFS returns a DirFS rooted at dir, creating it if needed.
func NewDirFS(dir string) (*DirFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskio: creating root: %w", err)
	}
	return &DirFS{root: dir}, nil
}

// NodeDirs opens node id's disk as the DirFS root/node<id>.
func NodeDirs(root string) func(id int) (FS, error) {
	return func(id int) (FS, error) {
		d, err := NewDirFS(fmt.Sprintf("%s/node%d", root, id))
		if err != nil {
			return nil, fmt.Errorf("diskio: work dir %q: %w", root, err)
		}
		return d, nil
	}
}

// Root returns the directory backing the filesystem.
func (d *DirFS) Root() string { return d.root }

func (d *DirFS) path(name string) (string, error) {
	if name == "" || filepath.IsAbs(name) || name != filepath.Clean(name) ||
		name == ".." || len(name) >= 3 && name[:3] == ".."+string(filepath.Separator) {
		return "", fmt.Errorf("diskio: invalid file name %q", name)
	}
	return filepath.Join(d.root, name), nil
}

type osFile struct {
	*os.File
	name string
}

func (f *osFile) Name() string { return f.name }

// Create implements FS.
func (d *DirFS) Create(name string) (File, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	if dir := filepath.Dir(p); dir != d.root {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.Create(p)
	if err != nil {
		return nil, err
	}
	return &osFile{File: f, name: name}, nil
}

// Open implements FS.
func (d *DirFS) Open(name string) (File, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	return &osFile{File: f, name: name}, nil
}

// Remove implements FS.
func (d *DirFS) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// Rename implements FS.  After the rename, the parent directory (and
// the source's parent, when different) is fsynced: os.Rename alone only
// updates the directory in the page cache, so a crash right after an
// "atomic" manifest commit could lose the rename and resurrect the old
// manifest — exactly the torn-commit window the durable-replace
// protocol exists to close.  MemFS and the fault wrapper need no
// equivalent (nothing outlives the process there), so directory
// durability is DirFS's job alone.
func (d *DirFS) Rename(oldName, newName string) error {
	op, err := d.path(oldName)
	if err != nil {
		return err
	}
	np, err := d.path(newName)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(np); dir != d.root {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if err := os.Rename(op, np); err != nil {
		return err
	}
	if err := SyncDir(filepath.Dir(np)); err != nil {
		return err
	}
	if od := filepath.Dir(op); od != filepath.Dir(np) {
		if err := SyncDir(od); err != nil {
			return err
		}
	}
	return nil
}

// SyncDir makes directory-entry changes (a rename, create or remove)
// durable by fsyncing the directory itself.  The storage backends and
// DirFS.Rename call it after every atomic-replace; it is a hook
// variable so tests can observe or stub the sync.
var SyncDir = func(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("diskio: opening directory for sync: %w", err)
	}
	serr := f.Sync()
	cerr := f.Close()
	if serr != nil {
		return fmt.Errorf("diskio: syncing directory %s: %w", dir, serr)
	}
	return cerr
}

// Names implements FS.
func (d *DirFS) Names() ([]string, error) {
	var names []string
	err := filepath.Walk(d.root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			rel, rerr := filepath.Rel(d.root, p)
			if rerr != nil {
				return rerr
			}
			names = append(names, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// MemFS is an in-memory FS: the default node disk of every test and
// example, and the byte store under storage.Object.  The zero value is
// not usable; call NewMemFS.
type MemFS struct {
	mu    sync.Mutex // guards the name table only; bytes are under each file's own lock
	files map[string]*memData
}

// A MemFS file is held in pages that double in size: page 0 holds the
// bytes [0, memPage), page i ≥ 1 the bytes [memPage·2^(i−1),
// memPage·2^i), up to memPageMax, after which every page is memPageMax.
// A growing file adds pages and never moves the bytes it has, in a
// handful of allocations.  Page 0 alone grows in place, doubling, so a
// small file takes no more than twice what it holds.
const (
	memPage          = 32 << 10
	memPageDoublings = 5
	memPageMax       = memPage << memPageDoublings
)

// Every page buffer comes from one process-wide pool per power-of-two
// size, 512 B … memPageMax, and goes back when its file is gone, so a
// node disk reuses what earlier passes freed; the Readers' and Writers'
// block buffers share the pool.  A pool holds a page as a pointer to
// its first byte, which an interface holds without allocating.
const minPageShift = 9

var (
	pagePools [12]sync.Pool // 512 B << i
	memPages  atomic.Int64  // pages MemFS files hold
)

// pageClass returns the index of the smallest pool size ≥ n (n = 0
// maps past the pools).
func pageClass(n int) int { return max(0, bits.Len(uint(n-1))-minPageShift) }

// getKeys returns a buffer of n keys, and getPage one of n bytes, whose
// capacity is its pool size.  Its contents are whatever the last holder
// left: callers expose only what they write.  A pool buffer is born as
// keys, which getPage views as bytes, so a key buffer is always aligned.
func getKeys(n int) []record.Key {
	c, size := pageClass(n*record.KeySize), n
	if c < len(pagePools) {
		size = (1 << (minPageShift + c)) / record.KeySize
		if p := pagePools[c].Get(); p != nil {
			poolHits.Add(1)
			return unsafe.Slice((*record.Key)(p.(unsafe.Pointer)), size)[:n]
		}
	}
	poolMisses.Add(1)
	return make([]record.Key, n, size)
}

func getPage(n int) []byte {
	k := getKeys((n + record.KeySize - 1) / record.KeySize)
	return record.Bytes(k[:cap(k)])[:n]
}

// putPage gives b back to its pool; a buffer of any other capacity is
// left to the garbage collector.
func putPage(b []byte) {
	if c := pageClass(cap(b)); c < len(pagePools) && cap(b) == 1<<(minPageShift+c) {
		pagePools[c].Put(unsafe.Pointer(unsafe.SliceData(b)))
	}
}

// MemFSPages returns how many pages MemFS files hold, process-wide.  A
// file gives its pages back when its name has left the table and its
// last handle is closed: a count that stays up points at a leaked handle.
func MemFSPages() int64 { return memPages.Load() }

// memPageAt returns the page holding byte off, the offset at which the
// page starts and its size.
func memPageAt(off int64) (i int, start, size int64) {
	switch {
	case off < memPage:
		return 0, 0, memPage
	case off < memPageMax:
		i = bits.Len64(uint64(off / memPage))
		start = memPage << (i - 1)
		return i, start, start
	}
	q := off / memPageMax
	return int(q) + memPageDoublings, q * memPageMax, memPageMax
}

// memData is one file's bytes, in the pages above; every page but the
// last is full.  Handles hold the *memData, so a Create or Install that
// replaces the name-table entry leaves handles opened before it on the
// old bytes.  The name table and every open handle each hold one
// reference; the last to go gives the pages back.
type memData struct {
	mu    sync.RWMutex
	pages [][]byte
	n     int64 // size in bytes
	refs  atomic.Int32
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memData)} }

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) { return m.Install(name, nil) }

// Install is Create with initial content: name atomically becomes a
// file holding a copy of data, so a concurrent Open sees the old file or
// the whole new one, never a prefix (storage.Object's Put).
func (m *MemFS) Install(name string, data []byte) (File, error) {
	if name == "" {
		return nil, errors.New("diskio: empty file name")
	}
	d := &memData{}
	d.refs.Store(2) // the table's and the returned handle's
	d.writeAt(0, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	if old := m.files[name]; old != nil {
		old.unref()
	}
	m.files[name] = d
	return &memFile{name: name, data: d, writable: true}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("diskio: open %s: %w", name, os.ErrNotExist)
	}
	d.refs.Add(1) // the table's reference keeps d whole meanwhile
	return &memFile{name: name, data: d}, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[name]
	if !ok {
		return fmt.Errorf("diskio: remove %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	d.unref()
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[oldName]
	if !ok {
		return fmt.Errorf("diskio: rename %s: %w", oldName, os.ErrNotExist)
	}
	if newName == "" {
		return errors.New("diskio: empty target name")
	}
	if old := m.files[newName]; old != nil && old != d {
		old.unref()
	}
	delete(m.files, oldName)
	m.files[newName] = d
	return nil
}

// Names implements FS.
func (m *MemFS) Names() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// unref drops one reference to d; the last gives its pages back.  The
// atomic count orders every write to d before the release.
func (d *memData) unref() {
	if d.refs.Add(-1) == 0 {
		for _, pg := range d.pages {
			putPage(pg)
		}
		memPages.Add(-int64(len(d.pages)))
		d.pages = nil
	}
}

func (d *memData) size() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.n
}

// readAt copies the bytes from off on into p and returns how many it
// copied.  The caller holds d.mu.
func (d *memData) readAt(off int64, p []byte) int {
	n := 0
	for n < len(p) && off < d.n {
		i, start, _ := memPageAt(off)
		c := copy(p[n:], d.pages[i][off-start:])
		n += c
		off += int64(c)
	}
	return n
}

// writeAt stores p at offset off ≤ d.n.  The caller holds d.mu, or is
// the only one to know d.  A page from the pool holds stale bytes, but
// only [0, d.n) is ever read, and every byte there was copied in here.
func (d *memData) writeAt(off int64, p []byte) {
	for len(p) > 0 {
		i, start, size := memPageAt(off)
		if i == len(d.pages) {
			c := size
			if i == 0 {
				c = min(int64(len(p)), size)
			}
			d.pages = append(d.pages, getPage(int(c))[:0])
			memPages.Add(1)
		}
		pg, in := d.pages[i], int(off-start)
		c := min(len(p), int(size)-in)
		if end := in + c; end > len(pg) {
			if end > cap(pg) {
				grown := getPage(min(max(end, 2*cap(pg)), int(size)))[:len(pg)]
				copy(grown, pg)
				putPage(pg)
				pg = grown
			}
			pg = pg[:end]
			d.pages[i] = pg
		}
		copy(pg[in:], p[:c])
		p = p[c:]
		off += int64(c)
		d.n = max(d.n, off)
	}
}

// memFile is a handle on one memData; the offset is the handle's own
// (a File is confined to one goroutine), the bytes are shared.
type memFile struct {
	name     string
	data     *memData
	off      int64
	writable bool
	closed   bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	f.data.mu.RLock()
	defer f.data.mu.RUnlock()
	if f.off >= f.data.n {
		return 0, io.EOF
	}
	n := f.data.readAt(f.off, p)
	f.off += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	if !f.writable {
		return 0, errors.New("diskio: file opened read-only")
	}
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	// A seek past EOF leaves a gap that must read back as zeros.
	if gap := f.off - f.data.n; gap > 0 {
		f.data.writeAt(f.data.n, make([]byte, gap))
	}
	f.data.writeAt(f.off, p)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, os.ErrClosed
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = f.data.size()
	default:
		return 0, fmt.Errorf("diskio: bad whence %d", whence)
	}
	np := base + offset
	if np < 0 {
		return 0, errors.New("diskio: negative seek position")
	}
	f.off = np
	return np, nil
}

// Close drops the handle's reference to the bytes; closing again does
// nothing.
func (f *memFile) Close() error {
	if !f.closed {
		f.closed = true
		f.data.unref()
	}
	return nil
}
