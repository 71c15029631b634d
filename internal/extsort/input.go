package extsort

import (
	"fmt"
	"slices"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

// DistributeInput generates n keys of the given distribution and stages
// them with StageInput.  Generation is not charged to the clocks — the
// paper's timings likewise exclude the initial distribution.
func DistributeInput(c *cluster.Cluster, v perf.Vector, dist record.Distribution,
	n int64, seed int64, blockKeys int, name string) (record.Checksum, error) {
	return StageInput(c, v, dist.Generate(int(n), seed, c.P()), blockKeys, name)
}

// StageInput writes each node's perf-proportional portion of keys to
// the file name on its private disk (the initial configuration of
// Algorithm 1: "disk i has l_i, a portion of size (n/Σperf)*perf[i] of
// the unsorted list"), uncharged.  It returns the input checksum for
// later verification.
func StageInput(c *cluster.Cluster, v perf.Vector, keys []record.Key,
	blockKeys int, name string) (record.Checksum, error) {
	if err := v.Validate(); err != nil {
		return record.Checksum{}, err
	}
	if len(v) != c.P() {
		return record.Checksum{}, fmt.Errorf("extsort: perf length %d != cluster size %d", len(v), c.P())
	}
	var off int64
	for i, share := range v.Shares(int64(len(keys))) {
		portion := keys[off : off+share]
		off += share
		if err := diskio.WriteFile(c.Node(i).FS(), name, portion, blockKeys, diskio.Accounting{}); err != nil {
			return record.Checksum{}, fmt.Errorf("extsort: writing node %d input: %w", i, err)
		}
	}
	return record.ChecksumOf(keys), nil
}

// VerifyOutput checks the global postcondition: every node's output
// file is sorted, the last key of node i does not exceed the first key
// of node i+1, and the multiset of keys matches the input checksum.
// Verification I/O is not charged to the clocks.
func VerifyOutput(c *cluster.Cluster, name string, blockKeys int, want record.Checksum) error {
	var got record.Checksum
	var last record.Key // the last key verified, on any node
	buf := make([]record.Key, blockKeys)
	for i := 0; i < c.P(); i++ {
		f, err := c.Node(i).FS().Open(name)
		if err != nil {
			return fmt.Errorf("extsort: node %d output: %w", i, err)
		}
		r := diskio.NewReader(f, blockKeys, diskio.Accounting{})
		for first := true; err == nil; first = false {
			var n int
			if n, err = diskio.ReadChunk(r, buf); n == 0 {
				break
			}
			chunk := buf[:n]
			switch {
			case first && got.Count > 0 && chunk[0] < last:
				err = fmt.Errorf("extsort: boundary violation: node %d starts at %d below node %d's last %d",
					i, chunk[0], i-1, last)
			case !first && chunk[0] < last:
				err = fmt.Errorf("extsort: node %d output not sorted (%d after %d)", i, chunk[0], last)
			case !slices.IsSorted(chunk):
				j := 1
				for chunk[j] >= chunk[j-1] {
					j++
				}
				err = fmt.Errorf("extsort: node %d output not sorted (%d after %d)", i, chunk[j], chunk[j-1])
			}
			got.Update(chunk)
			last = chunk[n-1]
		}
		r.Release()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if !got.Equal(want) {
		return fmt.Errorf("extsort: output multiset %v != input %v", got, want)
	}
	return nil
}
