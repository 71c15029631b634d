package diskio

import (
	"fmt"
	"testing"

	"hetsort/internal/pdm"
	"hetsort/internal/record"
)

// benchFS runs a layer benchmark on each node disk: in memory and on a
// directory of the host's filesystem.
func benchFS(b *testing.B, run func(b *testing.B, fs FS)) {
	b.Run("MemFS", func(b *testing.B) { run(b, NewMemFS()) })
	b.Run("DirFS", func(b *testing.B) {
		d, err := NewDirFS(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		run(b, d)
	})
}

// reportPerKey adds ns/key to a benchmark that moves keys keys per
// iteration.
func reportPerKey(b *testing.B, keys int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(keys), "ns/key")
}

// BenchmarkWriterThroughput writes 2^16 keys in blocks of 2048 through a
// Writer, the caller's slice holding every block whole.
func BenchmarkWriterThroughput(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	benchFS(b, func(b *testing.B, fs FS) {
		var c pdm.Counter
		b.SetBytes(int64(len(keys)) * record.KeySize)
		b.ReportAllocs()
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
		reportPerKey(b, len(keys))
	})
}

// BenchmarkReaderThroughput reads 2^16 keys back in blocks of 2048
// through a Reader, released after each pass.
func BenchmarkReaderThroughput(b *testing.B) {
	keys := record.Uniform.Generate(1<<16, 1, 1)
	benchFS(b, func(b *testing.B, fs FS) {
		if err := WriteFile(fs, "bench", keys, 2048, Accounting{}); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(keys)) * record.KeySize)
		b.ReportAllocs()
		buf := make([]record.Key, 2048)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := fs.Open("bench")
			if err != nil {
				b.Fatal(err)
			}
			r := NewReader(f, 2048, Accounting{})
			for {
				n, err := ReadChunk(r, buf)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					break
				}
			}
			r.Release()
			f.Close()
		}
		reportPerKey(b, len(keys))
	})
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
