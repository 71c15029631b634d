package diskio

import (
	"errors"
	"sync/atomic"
)

// ErrInjected is the sentinel returned by FaultFS when the configured
// operation budget is exhausted.
var ErrInjected = errors.New("diskio: injected fault")

// FaultFS wraps another FS and fails file operations after a fixed
// number of successful byte-level operations, for exercising error paths
// in the sorters.  FailAfter counts Read/Write/Seek calls across all
// files opened through the wrapper.
//
// By default every operation past the budget fails forever (a permanent
// disk failure).  Setting FailCount > 0 selects the transient mode: only
// the next FailCount operations fail, after which the device recovers
// and operations succeed again — the model of a controller hiccup or a
// transient NFS error.
type FaultFS struct {
	Inner FS
	// FailAfter is the number of file operations allowed before
	// injection starts.  Zero fails immediately; negative never fails.
	FailAfter int64
	// FailCount, when positive, bounds the number of injected failures:
	// after FailCount operations have failed, subsequent operations
	// succeed again (transient fault).  Zero or negative keeps the
	// permanent-failure behaviour.
	FailCount int64

	ops      atomic.Int64
	injected atomic.Int64
}

// NewFaultFS wraps inner so that file operations start failing after n
// successful ones (permanently; set FailCount for a transient fault).
func NewFaultFS(inner FS, n int64) *FaultFS {
	return &FaultFS{Inner: inner, FailAfter: n}
}

// NewTransientFaultFS wraps inner so that after n successful operations
// the next k operations fail with ErrInjected, and every operation after
// that succeeds again.
func NewTransientFaultFS(inner FS, n, k int64) *FaultFS {
	return &FaultFS{Inner: inner, FailAfter: n, FailCount: k}
}

// Ops returns the number of operations observed so far.
func (f *FaultFS) Ops() int64 { return f.ops.Load() }

// Injected returns the number of operations that failed with an
// injected error so far (for asserting that a retry path actually
// exercised the fault).
func (f *FaultFS) Injected() int64 { return f.injected.Load() }

func (f *FaultFS) allow() error {
	if f.FailAfter < 0 {
		return nil
	}
	over := f.ops.Add(1) - f.FailAfter
	if over <= 0 {
		return nil
	}
	if f.FailCount > 0 && over > f.FailCount {
		return nil // transient fault has passed
	}
	f.injected.Add(1)
	return ErrInjected
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if err := f.allow(); err != nil {
		return nil, err
	}
	inner, err := f.Inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (File, error) {
	if err := f.allow(); err != nil {
		return nil, err
	}
	inner, err := f.Inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: inner, fs: f}, nil
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.allow(); err != nil {
		return err
	}
	return f.Inner.Remove(name)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldName, newName string) error {
	if err := f.allow(); err != nil {
		return err
	}
	return f.Inner.Rename(oldName, newName)
}

// Names implements FS.
func (f *FaultFS) Names() ([]string, error) { return f.Inner.Names() }

type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.allow(); err != nil {
		return 0, err
	}
	return f.File.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.allow(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.fs.allow(); err != nil {
		return 0, err
	}
	return f.File.Seek(offset, whence)
}
