package storage

import (
	"io"
	"strings"

	"hetsort/internal/diskio"
)

// Object is an in-memory S3-style object store: a flat namespace of
// immutable-on-Put byte blobs.  It is one diskio.MemFS plus name
// validation: an object is a MemFS file under its full name, so Put
// swaps the whole file and a reader that opened the previous version
// keeps reading it unchanged (read-after-replace isolation, like S3).
// The FS view gives the sorts seekable read/write handles over objects
// in the same namespace.
//
// Object is the test and ephemeral-daemon backend; wrap it in Faulty to
// inject storage faults.
type Object struct {
	fs *diskio.MemFS
}

// NewObject returns an empty in-memory object store.
func NewObject() *Object { return &Object{fs: diskio.NewMemFS()} }

// Put implements Backend.
func (o *Object) Put(name string, data []byte) error {
	if err := ValidName(name); err != nil {
		return err
	}
	f, err := o.fs.Install(name, data)
	if err != nil {
		return err
	}
	return f.Close()
}

// open returns a read handle on the named object, positioned at its
// start, and the object's size.  The caller closes the handle: until
// then the object's pages cannot be recycled.
func (o *Object) open(op, name string) (diskio.File, int64, error) {
	if err := ValidName(name); err != nil {
		return nil, 0, err
	}
	f, err := o.fs.Open(name)
	if err != nil {
		return nil, 0, notExist(op, name, err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	return f, size, err
}

// Get implements Backend.
func (o *Object) Get(name string) ([]byte, error) {
	f, size, err := o.open("get", name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, size)
	_, err = io.ReadFull(f, data)
	return data, err
}

// Stat implements Backend.
func (o *Object) Stat(name string) (int64, error) {
	f, size, err := o.open("stat", name)
	if err != nil {
		return 0, err
	}
	return size, f.Close()
}

// List implements Backend.
func (o *Object) List(prefix string) ([]string, error) {
	all, err := o.fs.Names()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, n := range all {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	return names, nil
}

// Delete implements Backend.
func (o *Object) Delete(name string) error {
	if err := ValidName(name); err != nil {
		return err
	}
	return notExist("delete", name, o.fs.Remove(name))
}

// FS implements Backend: files created through the view are objects
// named prefix + "/" + filename.
func (o *Object) FS(prefix string) (diskio.FS, error) {
	if err := ValidName(prefix); err != nil {
		return nil, err
	}
	return &objectFS{store: o, prefix: prefix + "/"}, nil
}

// objectFS is a diskio.FS over one prefix of an Object store: every
// name is validated, prefixed, and handed to the store's MemFS, whose
// handles it returns as they are (their Name is the object's full name).
type objectFS struct {
	store  *Object
	prefix string
}

func (v *objectFS) key(name string) (string, error) {
	if err := ValidName(name); err != nil {
		return "", err
	}
	return v.prefix + name, nil
}

// Create implements diskio.FS.
func (v *objectFS) Create(name string) (diskio.File, error) {
	k, err := v.key(name)
	if err != nil {
		return nil, err
	}
	return v.store.fs.Create(k)
}

// Open implements diskio.FS.
func (v *objectFS) Open(name string) (diskio.File, error) {
	k, err := v.key(name)
	if err != nil {
		return nil, err
	}
	return v.store.fs.Open(k)
}

// Remove implements diskio.FS.
func (v *objectFS) Remove(name string) error {
	k, err := v.key(name)
	if err != nil {
		return err
	}
	return v.store.fs.Remove(k)
}

// Rename implements diskio.FS.
func (v *objectFS) Rename(oldName, newName string) error {
	ok, err := v.key(oldName)
	if err != nil {
		return err
	}
	nk, err := v.key(newName)
	if err != nil {
		return err
	}
	return v.store.fs.Rename(ok, nk)
}

// Names implements diskio.FS.
func (v *objectFS) Names() ([]string, error) {
	names, err := v.store.List(v.prefix)
	for i, n := range names {
		names[i] = strings.TrimPrefix(n, v.prefix)
	}
	return names, err
}
