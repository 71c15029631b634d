package storage

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hetsort/internal/diskio"
)

// Dir is a Backend rooted at a directory on the real filesystem.  Put
// follows the durable-replace protocol (temp write, fsync, atomic
// rename, parent-directory sync — the same discipline as the checkpoint
// manifests), so a crash mid-Put can never surface a torn object.
type Dir struct {
	root string
}

// NewDir returns a Dir backend rooted at dir, creating it if needed.
func NewDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating root: %w", err)
	}
	return &Dir{root: dir}, nil
}

// Root returns the directory backing the store.
func (d *Dir) Root() string { return d.root }

func (d *Dir) path(name string) (string, error) {
	if err := ValidName(name); err != nil {
		return "", err
	}
	return filepath.Join(d.root, filepath.FromSlash(name)), nil
}

// Put implements Backend.
func (d *Dir) Put(name string, data []byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(p)+".tmp*")
	if err != nil {
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	if err := diskio.SyncDir(dir); err != nil {
		return fmt.Errorf("storage: put %s: %w", name, err)
	}
	return nil
}

// Get implements Backend.
func (d *Dir) Get(name string) ([]byte, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	return data, notExist("get", name, err)
}

// Stat implements Backend.
func (d *Dir) Stat(name string) (int64, error) {
	p, err := d.path(name)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if err != nil {
		return 0, notExist("stat", name, err)
	}
	return st.Size(), nil
}

// List implements Backend.
func (d *Dir) List(prefix string) ([]string, error) {
	var names []string
	err := filepath.WalkDir(d.root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			return nil
		}
		rel, rerr := filepath.Rel(d.root, p)
		if rerr != nil {
			return rerr
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Delete implements Backend.
func (d *Dir) Delete(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	return notExist("delete", name, os.Remove(p))
}

// FS implements Backend: the view is a diskio.DirFS over the prefix
// subdirectory, so node working files are ordinary files under the
// store root and every object-API call sees them too.
func (d *Dir) FS(prefix string) (diskio.FS, error) {
	if err := ValidName(prefix); err != nil {
		return nil, err
	}
	return diskio.NewDirFS(filepath.Join(d.root, filepath.FromSlash(prefix)))
}
