// Package storage abstracts where a hetsortd deployment keeps its
// durable state: job specs and statuses, uploaded inputs, the nodes'
// working trees (with their checkpoint manifests), and finished
// artifacts.  A Backend exposes two views of one namespace:
//
//   - a flat object API (Put/Get/Stat/List/Delete) for whole artifacts,
//     with atomic Put so a crashed daemon never leaves a half-written
//     spec or status visible; and
//   - a diskio.FS view rooted at a prefix, so the sort's block-granular
//     working files — input portions, polyphase tapes, sorted files,
//     checkpoint manifests — live on the same backend and survive a
//     daemon restart with it.
//
// Two implementations ship: Dir, rooted at a local directory (the
// production shape for single-box deployments), and Object, an
// in-memory S3-style store for tests and ephemeral daemons, with an
// operation-budget fault injector (Faulty) mirroring diskio.FaultFS.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path"
	"strings"

	"hetsort/internal/diskio"
)

// ErrNotExist reports a missing object.  Implementations wrap it (or
// os.ErrNotExist) so callers can errors.Is either way.
var ErrNotExist = errors.New("storage: object does not exist")

// notExist turns the filesystem's os.ErrNotExist into the object API's
// ErrNotExist for operation op on name; any other err passes through.
func notExist(op, name string, err error) error {
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: %s %s: %w", op, name, ErrNotExist)
	}
	return err
}

// Backend stores named objects and exposes filesystem views over
// prefixes of the same namespace.  Object names are slash-separated
// relative paths.  Implementations must be safe for concurrent use.
type Backend interface {
	// Put atomically creates or replaces the named object; a reader can
	// never observe a partial write.
	Put(name string, data []byte) error
	// Get returns the object's full content.
	Get(name string) ([]byte, error)
	// Stat returns the object's size in bytes.
	Stat(name string) (int64, error)
	// List returns the names with the given prefix, lexically sorted.
	List(prefix string) ([]string, error)
	// Delete removes the named object; deleting a missing object is an
	// error wrapping ErrNotExist.
	Delete(name string) error
	// FS returns a diskio.FS view rooted at prefix: files created
	// through it are objects named prefix + "/" + filename.
	FS(prefix string) (diskio.FS, error)
}

// ValidName reports whether name is an acceptable object name: a clean,
// non-empty, slash-separated relative path that cannot escape the
// backend's namespace.
func ValidName(name string) error {
	if name == "" {
		return errors.New("storage: empty object name")
	}
	if strings.HasPrefix(name, "/") || path.Clean(name) != name ||
		name == "." || name == ".." || strings.HasPrefix(name, "../") {
		return fmt.Errorf("storage: invalid object name %q", name)
	}
	return nil
}
