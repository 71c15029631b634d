package diskio_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"hetsort/internal/diskio"
)

// replace atomically replaces name on fs with data.
func replace(fs diskio.FS, name string, data []byte) error {
	return diskio.ReplaceFile(fs, name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// names returns the file names on fs.
func names(t *testing.T, fs diskio.FS) []string {
	t.Helper()
	n, err := fs.Names()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReplaceFile holds ReplaceFile on the two filesystems a hetsortd
// store can be.
func TestReplaceFile(t *testing.T) {
	for _, impl := range fsImpls[:2] {
		t.Run(impl.name, func(t *testing.T) {
			t.Run("an open reader keeps the old bytes", func(t *testing.T) {
				fs := impl.mk(t)
				if err := replace(fs, "f", []byte("version-one")); err != nil {
					t.Fatal(err)
				}
				f, err := fs.Open("f")
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if err := replace(fs, "f", []byte("version-two!")); err != nil {
					t.Fatal(err)
				}
				if got, err := io.ReadAll(f); err != nil || string(got) != "version-one" {
					t.Fatalf("open reader saw %q, %v", got, err)
				}
				if got := get(t, fs, "f"); string(got) != "version-two!" {
					t.Fatalf("file holds %q", got)
				}
			})
			t.Run("no temporary file is left", func(t *testing.T) {
				fs := impl.mk(t)
				for _, body := range []string{"data", "more data"} {
					if err := replace(fs, "a/b/c", []byte(body)); err != nil {
						t.Fatal(err)
					}
				}
				if n := names(t, fs); !slices.Equal(n, []string{"a/b/c"}) {
					t.Fatalf("files after two replaces: %v", n)
				}
			})
			t.Run("a failed write leaves the old file", func(t *testing.T) {
				fs := impl.mk(t)
				if err := replace(fs, "f", []byte("old")); err != nil {
					t.Fatal(err)
				}
				boom := errors.New("boom")
				err := diskio.ReplaceFile(fs, "f", func(w io.Writer) error {
					w.Write([]byte("half"))
					return boom
				})
				if !errors.Is(err, boom) {
					t.Fatalf("ReplaceFile returned %v, want the write's error", err)
				}
				if got := get(t, fs, "f"); string(got) != "old" {
					t.Fatalf("file holds %q after a failed replace", got)
				}
				if n := names(t, fs); !slices.Equal(n, []string{"f"}) {
					t.Fatalf("files after a failed replace: %v", n)
				}
			})
			// Each writer writes its body in chunks and yields between
			// them, so the writers overlap: with one temporary name for
			// all of them, one writer's rename would publish another's
			// half-written file, or find the name gone.
			t.Run("concurrent replaces leave one whole body", func(t *testing.T) {
				fs := impl.mk(t)
				const writers, chunks, chunk = 4, 16, 1 << 10
				for round := range 20 {
					var wg sync.WaitGroup
					errs := make([]error, writers)
					for w := range writers {
						wg.Add(1)
						go func() {
							defer wg.Done()
							part := bytes.Repeat([]byte{byte(round*writers + w + 1)}, chunk)
							errs[w] = diskio.ReplaceFile(fs, "f", func(f io.Writer) error {
								for range chunks {
									if _, err := f.Write(part); err != nil {
										return err
									}
									runtime.Gosched()
								}
								return nil
							})
						}()
					}
					wg.Wait()
					if err := errors.Join(errs...); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					data := get(t, fs, "f")
					if len(data) != chunks*chunk || bytes.Count(data, data[:1]) != len(data) {
						t.Fatalf("round %d: %d bytes, not one writer's whole body", round, len(data))
					}
					if n := names(t, fs); !slices.Equal(n, []string{"f"}) {
						t.Fatalf("round %d: files %v", round, n)
					}
				}
			})
		})
	}
}

// TestSubSharesTheTree: a Sub view's files are its parent's files under
// the view's directory, and its Names lists those alone — not a sibling
// whose name merely starts with the same letters.
func TestSubSharesTheTree(t *testing.T) {
	for _, impl := range fsImpls[:2] {
		t.Run(impl.name, func(t *testing.T) {
			fs := impl.mk(t)
			node := view(t, fs)
			put(t, node, "a", []byte("through the view"))
			put(t, fs, "jobs/j1/node0/b", []byte("through the parent"))
			put(t, fs, "jobs/j1/node01/c", nil)
			put(t, fs, "jobs/j1/spec.json", nil)
			if got := get(t, fs, "jobs/j1/node0/a"); string(got) != "through the view" {
				t.Fatalf("parent reads %q", got)
			}
			if got := get(t, node, "b"); string(got) != "through the parent" {
				t.Fatalf("view reads %q", got)
			}
			if n := names(t, node); !slices.Equal(n, []string{"a", "b"}) {
				t.Fatalf("view lists %v", n)
			}
			if err := node.Rename("a", "d"); err != nil {
				t.Fatal(err)
			}
			if err := node.Remove("b"); err != nil {
				t.Fatal(err)
			}
			want := []string{"jobs/j1/node0/d", "jobs/j1/node01/c", "jobs/j1/spec.json"}
			if n := names(t, fs); !slices.Equal(n, want) {
				t.Fatalf("parent lists %v, want %v", n, want)
			}
			for _, dir := range []string{"", ".", "/jobs", "jobs/", "../jobs", "jobs/../x", "jobs//j1"} {
				if _, err := diskio.Sub(fs, dir); err == nil {
					t.Errorf("Sub(%q) accepted", dir)
				}
			}
		})
	}
}
