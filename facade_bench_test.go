package hetsort

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hetsort/internal/extsort"
	"hetsort/internal/record"
)

// BenchmarkFacadeTail times the facade's uncharged host work around
// Algorithm 1 on in-memory node disks, per key: staging the input
// (stage-ns/key) and the one pass that verifies every node's output and
// lands it in the caller's slice (land-ns/key).  The sort between them
// is not run; each node's output is its portion of the sorted keys.
func BenchmarkFacadeTail(b *testing.B) {
	const n = 1 << 20
	for _, p := range []int{4, 64} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			m, err := Config{Nodes: p}.resolve()
			if err != nil {
				b.Fatal(err)
			}
			defer m.release()
			keys := record.Uniform.Generate(n, 1, p)
			sorted := slices.Clone(keys)
			slices.Sort(sorted)
			if _, err := extsort.StageInput(m.c, m.Perf, sorted, m.BlockKeys, "output"); err != nil {
				b.Fatal(err)
			}
			sizes := m.Perf.Shares(n)
			var stage, land time.Duration
			b.ResetTimer()
			for range b.N {
				start := time.Now()
				sum, err := extsort.StageInput(m.c, m.Perf, keys, m.BlockKeys, "input")
				if err != nil {
					b.Fatal(err)
				}
				mid := time.Now()
				// Read in Machine.Run's chunks: at least 8192 keys.
				err = extsort.LandOutput(m.c, "output", max(m.BlockKeys, 8192), sum, sizes, func(n int64) (extsort.Lander, error) {
					out := make([]Key, n)
					return func(off int64, keys []Key) error {
						copy(out[off:], keys)
						return nil
					}, nil
				})
				if err != nil {
					b.Fatal(err)
				}
				stage, land = stage+mid.Sub(start), land+time.Since(mid)
			}
			keysDone := float64(b.N) * n
			b.ReportMetric(float64(stage.Nanoseconds())/keysDone, "stage-ns/key")
			b.ReportMetric(float64(land.Nanoseconds())/keysDone, "land-ns/key")
		})
	}
}
