package polyphase

import (
	"fmt"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

func BenchmarkSort(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			keys := record.Uniform.Generate(n, 1, 1)
			b.SetBytes(int64(n) * record.KeySize)
			for i := 0; i < b.N; i++ {
				fs := diskio.NewMemFS()
				if err := diskio.WriteFile(fs, "in", keys, 1024, diskio.Accounting{}); err != nil {
					b.Fatal(err)
				}
				cfg := Config{FS: fs, BlockKeys: 1024, MemoryKeys: 1 << 13, Tapes: 8,
					Acct: diskio.Accounting{}, TempPrefix: "b."}
				if _, err := Sort(cfg, "in", "out"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRunFormation(b *testing.B) {
	for _, rf := range []RunFormation{ReplacementSelection, LoadSort} {
		b.Run(rf.String(), func(b *testing.B) {
			keys := record.Uniform.Generate(1<<16, 1, 1)
			b.SetBytes(int64(len(keys)) * record.KeySize)
			fs := diskio.NewMemFS()
			if err := diskio.WriteFile(fs, "in", keys, 1024, diskio.Accounting{}); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				sink := &discardSink{}
				if _, _, err := formRuns(fs, "in", 1024, 1<<13, rf, diskio.Accounting{}, sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type discardSink struct{}

func (discardSink) beginRun() error       { return nil }
func (discardSink) emit(record.Key) error { return nil }
func (discardSink) endRun() error         { return nil }

func BenchmarkMergeFiles(b *testing.B) {
	fs := diskio.NewMemFS()
	var names []string
	for i := 0; i < 8; i++ {
		part := record.Sorted.Generate(1<<13, int64(i), 1)
		name := fmt.Sprintf("part%d", i)
		if err := diskio.WriteFile(fs, name, part, 1024, diskio.Accounting{}); err != nil {
			b.Fatal(err)
		}
		names = append(names, name)
	}
	b.SetBytes(8 << 13 * record.KeySize)
	cfg := Config{FS: fs, BlockKeys: 1024, MemoryKeys: 1 << 14, Tapes: 10,
		Acct: diskio.Accounting{}, TempPrefix: "b."}
	for i := 0; i < b.N; i++ {
		if err := MergeFiles(cfg, names, "merged"); err != nil {
			b.Fatal(err)
		}
	}
}
