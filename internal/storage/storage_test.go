package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

func backends(t *testing.T) map[string]Backend {
	t.Helper()
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"dir": d, "object": NewObject()}
}

func TestObjectAPIBothBackends(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("jobs/j1/spec.json", []byte(`{"a":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("jobs/j2/spec.json", []byte(`{"a":2}`)); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("inputs/data", []byte("xyzw")); err != nil {
				t.Fatal(err)
			}
			got, err := b.Get("jobs/j1/spec.json")
			if err != nil || string(got) != `{"a":1}` {
				t.Fatalf("get: %q %v", got, err)
			}
			sz, err := b.Stat("inputs/data")
			if err != nil || sz != 4 {
				t.Fatalf("stat: %d %v", sz, err)
			}
			names, err := b.List("jobs/")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"jobs/j1/spec.json", "jobs/j2/spec.json"}
			if !reflect.DeepEqual(names, want) {
				t.Fatalf("list: %v want %v", names, want)
			}
			// Put replaces atomically; Get sees the new content.
			if err := b.Put("inputs/data", []byte("replaced")); err != nil {
				t.Fatal(err)
			}
			got, _ = b.Get("inputs/data")
			if string(got) != "replaced" {
				t.Fatalf("replaced content: %q", got)
			}
			if err := b.Delete("inputs/data"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get("inputs/data"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("get deleted: %v", err)
			}
			if err := b.Delete("inputs/data"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("delete missing: %v", err)
			}
			if _, err := b.Stat("ghost"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("stat missing: %v", err)
			}
		})
	}
}

func TestInvalidNamesRejected(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []string{"", ".", "..", "../x", "/abs", "a/../../b", "a//b"} {
				if err := b.Put(bad, []byte("x")); err == nil {
					t.Errorf("Put(%q) accepted", bad)
				}
			}
		})
	}
}

func TestFSViewSharesNamespace(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			fs, err := b.FS("jobs/j1/node0")
			if err != nil {
				t.Fatal(err)
			}
			keys := []record.Key{5, 3, 9}
			if err := diskio.WriteFile(fs, "output", keys, 2, diskio.Accounting{}); err != nil {
				t.Fatal(err)
			}
			// The file is visible as an object under the prefix...
			data, err := b.Get("jobs/j1/node0/output")
			if err != nil {
				t.Fatal(err)
			}
			if len(data) != len(keys)*record.KeySize {
				t.Fatalf("object size %d", len(data))
			}
			// ...and object content round-trips through the FS reader.
			got, err := diskio.ReadFileAll(fs, "output", 2, diskio.Accounting{})
			if err != nil || !reflect.DeepEqual(got, keys) {
				t.Fatalf("read back: %v %v", got, err)
			}
			// FS-level rename, remove and names work.
			if err := fs.Rename("output", "renamed"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Get("jobs/j1/node0/output"); err == nil {
				t.Fatal("old object name still resolves after FS rename")
			}
			names, err := fs.Names()
			if err != nil || !reflect.DeepEqual(names, []string{"renamed"}) {
				t.Fatalf("names: %v %v", names, err)
			}
			if err := fs.Remove("renamed"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("renamed"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("open removed: %v", err)
			}
		})
	}
}

func TestFSViewSeekAndCount(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			fs, err := b.FS("w")
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]record.Key, 100)
			for i := range keys {
				keys[i] = record.Key(i)
			}
			if err := diskio.WriteFile(fs, "f", keys, 8, diskio.Accounting{}); err != nil {
				t.Fatal(err)
			}
			n, err := diskio.CountKeys(fs, "f")
			if err != nil || n != 100 {
				t.Fatalf("CountKeys=%d,%v", n, err)
			}
			f, err := fs.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			k, err := diskio.ReadKeyAt(f, 42, diskio.Accounting{})
			if err != nil || k != 42 {
				t.Fatalf("ReadKeyAt=%d,%v", k, err)
			}
		})
	}
}

func TestObjectPutIsolatesOpenReaders(t *testing.T) {
	o := NewObject()
	if err := o.Put("ns/f", []byte("version-one")); err != nil {
		t.Fatal(err)
	}
	fs, _ := o.FS("ns")
	f, err := fs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := o.Put("ns/f", []byte("version-two!")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, []byte("version-one")) {
		t.Fatalf("open reader saw %q, %v", got, err)
	}
	now, _ := o.Get("ns/f")
	if !bytes.Equal(now, []byte("version-two!")) {
		t.Fatalf("store content %q", now)
	}
}

// TestObjectDeleteRecyclesPages: Put, Get and Stat close the MemFS
// handles they open, so a replaced or deleted object's pages go back to
// the pool instead of being left to the garbage collector.
func TestObjectDeleteRecyclesPages(t *testing.T) {
	o := NewObject()
	before := diskio.MemFSPages()
	for v := byte(0); v < 3; v++ {
		if err := o.Put("ns/f", bytes.Repeat([]byte{v}, 100<<10)); err != nil {
			t.Fatal(err)
		}
		if data, err := o.Get("ns/f"); err != nil || data[0] != v {
			t.Fatalf("Get: %v", err)
		}
		if _, err := o.Stat("ns/f"); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Delete("ns/f"); err != nil {
		t.Fatal(err)
	}
	if after := diskio.MemFSPages(); after != before {
		t.Fatalf("MemFS held %d pages before and %d after the object was deleted", before, after)
	}
}

func TestDirPutAtomicOnDisk(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("a/b/c", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// No temp residue next to the object.
	entries, err := os.ReadDir(filepath.Join(root, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "c" {
		t.Fatalf("directory entries: %v", entries)
	}
}

func TestFaultyPermanentAndTransient(t *testing.T) {
	inner := NewObject()
	perm := NewFaulty(inner, 2)
	if err := perm.Put("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := perm.Put("b", nil); err != nil {
		t.Fatal(err)
	}
	if err := perm.Put("c", nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("third op: %v", err)
	}
	if _, err := perm.Get("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("permanent fault recovered: %v", err)
	}
	if perm.Injected() != 2 {
		t.Fatalf("injected=%d", perm.Injected())
	}

	trans := &Faulty{Inner: inner, FailAfter: 1, FailCount: 2}
	if _, err := trans.Get("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := trans.Get("a"); !errors.Is(err, ErrInjected) {
			t.Fatalf("fault %d not injected: %v", i, err)
		}
	}
	if _, err := trans.Get("a"); err != nil {
		t.Fatalf("transient fault did not clear: %v", err)
	}
	// The FS view bypasses the object-op budget by design.
	if _, err := perm.FS("ns"); err != nil {
		t.Fatal(err)
	}
}

// TestObjectConcurrentAccess is a -race test of the store's two lock
// levels.  Puts, Gets and FS-view reads race on one object name: every
// read must see one whole version (each version is a run of one byte
// whose length is that byte), never a prefix or a mix.  Meanwhile a
// writer handle appends to a second file of the same store and a reader
// handle scans a third, which share the name table but no file lock,
// and Stat reads the length of the file being appended to.
func TestObjectConcurrentAccess(t *testing.T) {
	o := NewObject()
	fs, err := o.FS("ns")
	if err != nil {
		t.Fatal(err)
	}
	version := func(v byte) []byte { return bytes.Repeat([]byte{v}, int(v)) }
	whole := func(data []byte) bool {
		return len(data) > 0 && len(data) == int(data[0]) && bytes.Count(data, data[:1]) == len(data)
	}
	if err := o.Put("ns/f", version(1)); err != nil {
		t.Fatal(err)
	}
	other := bytes.Repeat([]byte("other"), 100)
	if err := o.Put("ns/other", other); err != nil {
		t.Fatal(err)
	}

	const rounds = 200
	var wg sync.WaitGroup
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		run(func(i int) error { return o.Put("ns/f", version(byte(1+i%250))) })
	}
	run(func(int) error {
		data, err := o.Get("ns/f")
		if err == nil && !whole(data) {
			err = fmt.Errorf("Get saw a torn object: %d bytes of %v", len(data), data[:1])
		}
		return err
	})
	run(func(int) error {
		f, err := fs.Open("f")
		if err != nil {
			return err
		}
		defer f.Close()
		data, err := io.ReadAll(f)
		if err == nil && !whole(data) {
			err = fmt.Errorf("open reader saw a torn object: %d bytes of %v", len(data), data[:1])
		}
		return err
	})
	appender, err := fs.Create("log")
	if err != nil {
		t.Fatal(err)
	}
	run(func(int) error { _, err := appender.Write([]byte("block")); return err })
	run(func(int) error { _, err := o.Stat("ns/log"); return err }) // the appender's file lock
	run(func(int) error {
		f, err := fs.Open("other")
		if err != nil {
			return err
		}
		defer f.Close()
		data, err := io.ReadAll(f)
		if err == nil && !bytes.Equal(data, other) {
			err = fmt.Errorf("reader of an untouched file saw %d bytes", len(data))
		}
		return err
	})
	wg.Wait()
	if sz, err := o.Stat("ns/log"); err != nil || sz != rounds*int64(len("block")) {
		t.Fatalf("appended file: %d bytes, %v", sz, err)
	}
}
