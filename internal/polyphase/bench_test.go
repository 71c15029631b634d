package polyphase

import (
	"fmt"
	"slices"
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

// BenchmarkRunFormation times the three run formers alone (input through
// a MemFS reader, runs discarded) at the small shape of the tests and at
// the in-regime shape of the bench's het4-mem node 2 (M 65536, B 2048,
// 2^20 keys), on uniform keys and on zipf-s2, whose loads are mostly one
// key and vary only in bits 12-27.  Two more shapes are the load formers
// two bench workloads run, at their M and B: skew4-hist's Guidesort on
// zipf-s2 (M 16384, B 1024, 2^19 keys) and wide64-tree's Load-sort on
// uniform keys (M 4096, B 128, 2^17 keys).  There the in-core sorter,
// record.SortKeys, does most of the work.
func BenchmarkRunFormation(b *testing.B) {
	all := []RunFormation{ReplacementSelection, LoadSort, Guidesort}
	shapes := []struct {
		name                string
		keys, block, memory int
		dists               []record.Distribution
		formers             []RunFormation
	}{
		{"small", 1 << 16, 1024, 1 << 13, []record.Distribution{record.Uniform, record.ZipfS2}, all},
		{"regime", 1 << 20, 2048, 1 << 16, []record.Distribution{record.Uniform, record.ZipfS2}, all},
		{"skew4", 1 << 19, 1024, 1 << 14, []record.Distribution{record.ZipfS2}, []RunFormation{Guidesort}},
		{"wide64", 1 << 17, 128, 1 << 12, []record.Distribution{record.Uniform}, []RunFormation{LoadSort}},
	}
	for _, sh := range shapes {
		for _, d := range sh.dists {
			fs := diskio.NewMemFS()
			keys := d.Generate(sh.keys, 1, 1)
			if err := diskio.WriteFile(fs, "in", keys, sh.block, diskio.Accounting{}); err != nil {
				b.Fatal(err)
			}
			for _, rf := range sh.formers {
				b.Run(fmt.Sprintf("%s/%v/%v", sh.name, d, rf), func(b *testing.B) {
					b.SetBytes(int64(sh.keys) * record.KeySize)
					for i := 0; i < b.N; i++ {
						if _, _, err := formRuns(fs, "in", sh.block, sh.memory, rf, diskio.Accounting{}, discardSink{}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.keys), "ns/key")
				})
			}
		}
	}
}

type discardSink struct{}

func (discardSink) beginRun() (int, error)      { return 0, nil }
func (discardSink) emitKeys([]record.Key) error { return nil }
func (discardSink) endRun() error               { return nil }

// BenchmarkMerge times the kernel merging k sorted runs read in B-key
// blocks into a block writer on an in-memory file.  The uniform runs are
// dealt key by key, so chunks are a key or two: a polyphase merge step
// at wide64-tree's shape (T 8, B 128) and at het4-mem's (T 15, B 2048),
// and wide64-tree's radix-4 redistribution merge (a node's own bucket
// and 3 streams, B 128).  Two shapes hand most of their keys back from
// the per-key lane to the chunk path: skew4-hist's polyphase merge of
// zipf-s2 runs (T 4, B 1024), whose hot keys make long chunks, and a
// banded merge whose runs are dealt 16 consecutive keys at a time, so
// every chunk is 16 keys.
func BenchmarkMerge(b *testing.B) {
	const n = 1 << 20
	for _, sh := range []struct {
		name           string
		dist           record.Distribution
		k, block, band int
	}{
		{"", record.Uniform, 7, 128, 1},
		{"", record.Uniform, 14, 2048, 1},
		{"", record.Uniform, 4, 128, 1},
		{"zipf-s2/", record.ZipfS2, 3, 1024, 1},
		{"band=16/", record.Uniform, 4, 128, 16},
	} {
		keys := sh.dist.Generate(n, 1, 1)
		if sh.band > 1 {
			slices.Sort(keys)
		}
		runs := make([][]record.Key, sh.k)
		for i, key := range keys {
			r := i / sh.band % sh.k
			runs[r] = append(runs[r], key)
		}
		for _, r := range runs {
			slices.Sort(r)
		}
		b.Run(fmt.Sprintf("%sk=%d/B=%d", sh.name, sh.k, sh.block), func(b *testing.B) {
			b.SetBytes(n * record.KeySize)
			for i := 0; i < b.N; i++ {
				srcs := make([]MergeSource, sh.k)
				for j, r := range runs {
					srcs[j] = &sliceSource{keys: r, blk: sh.block}
				}
				f, err := diskio.NewMemFS().Create("out")
				if err != nil {
					b.Fatal(err)
				}
				w := diskio.NewWriter(f, sh.block, diskio.Accounting{})
				if err := Merge(srcs, nil, w.WriteKeys); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
		})
	}
}

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
