package extsort

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

// eachNode runs fn(i) for every node i < p on at most GOMAXPROCS
// goroutines that take the nodes in order, and returns the lowest
// failing node's error, as a loop over the nodes would.
func eachNode(p int, fn func(i int) error) error {
	errs := make([]error, p)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(p, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < p; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return cmp.Or(errs...)
}

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
	return stage(c, v, int64(len(keys)), blockKeys, name, 0, func(off int64, n int, _ []record.Key) ([]record.Key, error) {
		return keys[off : off+int64(n)], nil
	})
}

// StageFile is StageInput from in, n little-endian keys: each node reads
// its own portion of in with ReadAt, in chunks of at least 8192 keys
// whatever B is, so that a small B does not cost a syscall per block.
func StageFile(c *cluster.Cluster, v perf.Vector, in io.ReaderAt, n int64,
	blockKeys int, name string) (record.Checksum, error) {
	return stage(c, v, n, blockKeys, name, max(blockKeys, 8192), func(off int64, n int, buf []record.Key) ([]record.Key, error) {
		keys := buf[:n]
		if _, err := in.ReadAt(record.Bytes(keys), off*record.KeySize); err != nil {
			return nil, fmt.Errorf("reading input: %w", err)
		}
		record.DiskOrder(keys)
		return keys, nil
	})
}

// stage writes each node's portion of the n input keys to name, one
// chunk of bufKeys keys at a time (one block when bufKeys is 0): read
// returns the n keys from offset off, in buf (of bufKeys keys per node)
// or elsewhere, and each chunk's checksum is folded as it is written.
func stage(c *cluster.Cluster, v perf.Vector, n int64, blockKeys int, name string, bufKeys int,
	read func(off int64, n int, buf []record.Key) ([]record.Key, error)) (record.Checksum, error) {
	if err := v.Validate(); err != nil {
		return record.Checksum{}, err
	}
	if len(v) != c.P() {
		return record.Checksum{}, fmt.Errorf("extsort: perf length %d != cluster size %d", len(v), c.P())
	}
	shares := v.Shares(n)
	offs := make([]int64, len(shares))
	for i := 1; i < len(offs); i++ {
		offs[i] = offs[i-1] + shares[i-1]
	}
	sums := make([]record.Checksum, len(shares))
	err := eachNode(c.P(), func(i int) error {
		f, err := c.Node(i).FS().Create(name)
		if err == nil {
			w := diskio.NewWriter(f, blockKeys, diskio.Accounting{})
			buf, step := make([]record.Key, bufKeys), int64(cmp.Or(bufKeys, blockKeys))
			for off, end := offs[i], offs[i]+shares[i]; off < end && err == nil; off += step {
				var keys []record.Key
				if keys, err = read(off, int(min(end-off, step)), buf); err == nil {
					sums[i].Update(keys)
					err = w.WriteKeys(keys)
				}
			}
			err = cmp.Or(err, w.Close(), f.Close())
		}
		if err != nil {
			return fmt.Errorf("extsort: writing node %d input: %w", i, err)
		}
		return nil
	})
	var sum record.Checksum
	for _, s := range sums {
		sum.Add(s)
	}
	return sum, err
}

// A Lander puts verified keys at key offset off of the sorted output.
// LandOutput calls it concurrently on disjoint ranges, and it may leave
// keys in disk order (record.DiskOrder).
type Lander func(off int64, keys []record.Key) error

// VerifyOutput checks the global postcondition: every node's output
// file is sorted, the last key of node i does not exceed the first key
// of node i+1, and the multiset of keys matches the input checksum.
// Verification I/O is not charged to the clocks.
func VerifyOutput(c *cluster.Cluster, name string, blockKeys int, want record.Checksum) error {
	return LandOutput(c, name, blockKeys, want, nil, nil)
}

// LandOutput is VerifyOutput in one read of every node's output that,
// when sizes is not nil, also checks node i's key count against
// sizes[i] and, when open is not nil too, lands each block it has
// checked with the Lander that open returns for the sum of sizes: node
// i's keys start at sizes[0]+…+sizes[i−1].
func LandOutput(c *cluster.Cluster, name string, blockKeys int, want record.Checksum,
	sizes []int64, open func(n int64) (Lander, error)) error {
	p := c.P()
	offs := make([]int64, p+1)
	for i := 0; i < p && sizes != nil; i++ {
		offs[i+1] = offs[i] + sizes[i]
	}
	var land Lander
	if open != nil && sizes != nil {
		var err error
		if land, err = open(offs[p]); err != nil {
			return err
		}
	}
	// Node i's part: its keys' checksum, first and last key, and failure.
	parts := make([]struct {
		sum         record.Checksum
		first, last record.Key
		err         error
	}, p)
	_ = eachNode(p, func(i int) error { // the parts say which node failed how
		v := &parts[i]
		f, r, err := diskio.Section{Name: name, Keys: -1}.Open(c.Node(i).FS(), blockKeys, diskio.Accounting{})
		if err != nil {
			v.err = fmt.Errorf("extsort: node %d output: %w", i, err)
			return v.err
		}
		for v.err == nil {
			if v.err = r.Fill(); v.err != nil {
				break
			}
			chunk, at, prev := r.Buffered(), v.sum.Count, v.last
			r.Discard(len(chunk))
			if at == 0 {
				v.first, prev = chunk[0], chunk[0]
			}
			for _, k := range chunk {
				if k < prev {
					v.err = fmt.Errorf("extsort: node %d output not sorted (%d after %d)", i, k, prev)
					break
				}
				prev = k
			}
			v.sum.Update(chunk)
			v.last = chunk[len(chunk)-1]
			if v.err == nil && land != nil && v.sum.Count <= sizes[i] {
				v.err = land(offs[i]+at, chunk) // no key past sizes[i] is landed
			}
		}
		r.Release()
		if v.err == io.EOF {
			v.err = nil
		}
		v.err = cmp.Or(v.err, f.Close())
		if v.err == nil && sizes != nil && v.sum.Count != sizes[i] {
			v.err = fmt.Errorf("extsort: node %d output holds %d keys, the report says %d", i, v.sum.Count, sizes[i])
		}
		return v.err
	})
	var got record.Checksum
	var last record.Key // the last key verified, on any node (an empty node's 0 leaves it)
	for i, v := range parts {
		if v.sum.Count > 0 && v.first < last {
			return fmt.Errorf("extsort: boundary violation: node %d starts at %d below node %d's last %d",
				i, v.first, i-1, last)
		}
		if v.err != nil {
			return v.err
		}
		last = max(last, v.last)
		got.Add(v.sum)
	}
	if !got.Equal(want) {
		return fmt.Errorf("extsort: output multiset %v != input %v", got, want)
	}
	return nil
}
