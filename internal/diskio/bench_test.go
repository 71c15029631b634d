package diskio

import (
	"fmt"
	"io"
	"testing"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
)

func BenchmarkWriterThroughput(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	b.SetBytes(int64(len(keys)) * record.KeySize)
	fs := NewMemFS()
	var c pdm.Counter
	for i := 0; i < b.N; i++ {
		f, err := fs.Create("bench")
		if err != nil {
			b.Fatal(err)
		}
		w := NewWriter(f, 2048, Accounting{Counter: &c})
		if err := w.WriteKeys(keys); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

func BenchmarkReaderThroughput(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	fs := NewMemFS()
	if err := WriteFile(fs, "bench", keys, 2048, Accounting{}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(keys)) * record.KeySize)
	buf := make([]record.Key, 2048)
	for i := 0; i < b.N; i++ {
		f, err := fs.Open("bench")
		if err != nil {
			b.Fatal(err)
		}
		r := NewReader(f, 2048, Accounting{})
		for {
			n, err := r.ReadKeys(buf)
			if err == io.EOF || n == 0 {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		f.Close()
	}
}

func BenchmarkReadKeyAt(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	fs := NewMemFS()
	if err := WriteFile(fs, "bench", keys, 2048, Accounting{}); err != nil {
		b.Fatal(err)
	}
	f, err := fs.Open("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadKeyAt(f, int64(i%(1<<16)), Accounting{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemFSChurn is a node disk's life between passes: create a
// file, write it in blocks, close and remove it.  The pages of one cycle
// serve the next, so past the first cycle B/op reads close to 0.
func BenchmarkMemFSChurn(b *testing.B) {
	block := make([]byte, 8<<10)
	for _, size := range []int{16 << 10, 16 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			fs := NewMemFS()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := fs.Create("churn")
				if err != nil {
					b.Fatal(err)
				}
				for n := 0; n < size; n += len(block) {
					f.Write(block)
				}
				f.Close()
				if err := fs.Remove("churn"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
