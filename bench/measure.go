package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"time"

	"hetsort"
	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

// minReps keeps a median robust to one slow rep however short -seconds is.
const minReps = 3

// inputs are what one set-up leaves behind for the timed reps.
type inputs struct {
	w    *workload
	seed int64
	n    int64
	keys []record.Key
	sum  record.Checksum
	// dir is this process's scratch directory; inputPath is the staged
	// input file of a dirFS workload.
	dir       string
	inputPath string
}

// setUp does everything a fresh process must do before its first timed
// rep: generate the keys from the seed, stage the input file of a dirFS
// workload, and sort once at full size, which grows the heap and fills
// the pools and the page cache the timed reps then find warm.  The
// sorter sees only generated keys.  A traced set-up records the
// generation as a span.  The warm-up's sample is returned: it is checked
// like any rep, and every later rep must repeat its output.
func setUp(w *workload, seed, n int64, dir string, tr *tracer) (*inputs, sample, error) {
	in := &inputs{w: w, seed: seed, n: n, dir: dir}
	generate := func() error {
		in.keys = w.dist.Generate(int(n), seed, len(w.perf))
		return nil
	}
	if tr != nil {
		tr.run("record.generate", n, generate)
	} else {
		generate()
	}
	in.sum = record.ChecksumOf(in.keys)
	if w.dirFS {
		// A DirFS file is the host format SortFile reads: little-endian
		// uint32 values, nothing else.
		fs, err := diskio.NewDirFS(dir)
		if err != nil {
			return nil, sample{}, err
		}
		if err := diskio.WriteFile(fs, "input.u32", in.keys, 1<<16, diskio.Accounting{}); err != nil {
			return nil, sample{}, err
		}
		in.inputPath = filepath.Join(dir, "input.u32")
	}
	return in, in.rep("warm", nil), nil
}

// sample is one rep: host costs of the facade call, the model's numbers
// from its Report, and the fingerprint of its output.
type sample struct {
	cost
	peakRSSMB float64
	vsec      float64
	blockIOs  int64
	expansion float64
	sha       string
	fail      string // why the rep counts as failed ("" when it passed)
	report    *hetsort.Report
}

// rep runs the facade once and checks its output.  Only the facade
// call is timed; the verification after it is outside.  A traced rep is
// the same call inside a span.
func (in *inputs) rep(tag string, tr *tracer) sample {
	var s sample
	workDir, outPath := "", ""
	if in.w.dirFS {
		workDir = filepath.Join(in.dir, tag+".work")
		outPath = filepath.Join(in.dir, tag+".out")
		defer os.RemoveAll(workDir)
		defer os.Remove(outPath)
	}
	cfg := in.w.facadeConfig(workDir)
	var out []record.Key
	call := func() (err error) {
		if in.w.dirFS {
			s.report, err = hetsort.SortFile(in.inputPath, outPath, cfg)
		} else {
			out, s.report, err = hetsort.Sort(in.keys, cfg)
		}
		return err
	}
	resetPeakRSS()
	if tr != nil {
		s.cost = tr.run("hetsort.sort", in.n, call).cost
	} else {
		s.cost = timed(call)
	}
	s.peakRSSMB = peakRSSMB()
	if s.Err != nil {
		s.fail = "sort failed: " + s.Err.Error()
		return s
	}
	s.vsec = s.report.Time
	s.blockIOs = s.report.ReadBlocks + s.report.WriteBlocks
	s.expansion = s.report.SublistExpansion
	c := checker{sha: sha256.New()}
	if in.w.dirFS {
		if err := c.file(outPath); err != nil {
			s.fail = "reading output: " + err.Error()
			return s
		}
	} else {
		c.keys(out)
	}
	s.sha, s.fail = c.verdict(in.sum)
	return s
}

// differs says why a rep is not the repeat of the first one, the
// warm-up, that a deterministic sorter must produce ("" when it is).
func (s *sample) differs(first *sample) string {
	switch {
	case s.sha != first.sha:
		return fmt.Sprintf("output sha256 %s differs from the warm-up's %s", s.sha, first.sha)
	case s.vsec != first.vsec:
		return fmt.Sprintf("vsec %v differs from the warm-up's %v", s.vsec, first.vsec)
	case s.blockIOs != first.blockIOs:
		return fmt.Sprintf("block_ios %d differs from the warm-up's %d", s.blockIOs, first.blockIOs)
	}
	return ""
}

// checker folds a sorter's output into the three things a rep is judged
// by: order, the permutation checksum, and the SHA-256 of the bytes.
type checker struct {
	sum      record.Checksum
	sha      hash.Hash
	prev     record.Key
	unsorted int64 // index of the first descent, +1 (0: none)
	seen     int64
	buf      []byte
}

func (c *checker) add(keys []record.Key, raw []byte) {
	if raw == nil {
		c.buf = record.EncodeKeys(c.buf[:0], keys)
		raw = c.buf
	}
	c.sha.Write(raw)
	c.sum.Update(keys)
	for i, k := range keys {
		if k < c.prev && c.unsorted == 0 {
			c.unsorted = c.seen + int64(i) + 1
		}
		c.prev = k
	}
	c.seen += int64(len(keys))
}

func (c *checker) keys(out []record.Key) {
	const chunk = 1 << 16
	for len(out) > 0 {
		n := min(len(out), chunk)
		c.add(out[:n], nil)
		out = out[n:]
	}
}

func (c *checker) file(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	raw := make([]byte, 1<<18)
	var keys []record.Key
	for {
		n, err := io.ReadFull(f, raw)
		if n%record.KeySize != 0 {
			return fmt.Errorf("%s: ragged length", path)
		}
		if n > 0 {
			keys = record.DecodeKeys(keys[:0], raw[:n])
			c.add(keys, raw[:n])
		}
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// verdict returns the output's SHA-256 and why it is not a sorted
// permutation of the input ("" when it is).
func (c *checker) verdict(want record.Checksum) (sha, fail string) {
	sha = hex.EncodeToString(c.sha.Sum(nil))
	switch {
	case c.unsorted != 0:
		fail = fmt.Sprintf("output not sorted at key %d", c.unsorted-1)
	case !c.sum.Equal(want):
		fail = fmt.Sprintf("output multiset %v is not the input's %v", c.sum, want)
	}
	return sha, fail
}

// untraced is the pass every end-to-end metric comes from.  samples[0]
// is the warm-up rep of the set-up: it counts as attempted and can fail,
// but its host costs are the set-up's, not the sorter's steady state.
type untraced struct {
	in      *inputs
	setup   float64 // seconds from process start to the first timed rep
	samples []sample
}

// measure sets up, then runs timed reps in a closed loop, one sort at a
// time from this goroutine: exactly reps of them when reps > 0,
// otherwise as many as are expected to end within seconds (at least
// minReps).
func measure(w *workload, seed, n int64, dir string, seconds float64, reps int) (*untraced, error) {
	in, warm, err := setUp(w, seed, n, dir, nil)
	if err != nil {
		return nil, err
	}
	u := &untraced{in: in, setup: time.Since(processStart).Seconds(), samples: []sample{warm}}
	loop := time.Now()
	for i := 0; ; i++ {
		if reps > 0 {
			if i == reps {
				break
			}
		} else if i >= minReps {
			spent := time.Since(loop).Seconds()
			if spent+spent/float64(i) > seconds {
				break
			}
		}
		s := in.rep(fmt.Sprintf("rep%d", i), nil)
		if s.fail == "" {
			s.fail = s.differs(&warm)
		}
		u.samples = append(u.samples, s)
	}
	return u, nil
}

// failed counts the reps that failed, the warm-up included.
func (u *untraced) failed() int {
	f := 0
	for i := range u.samples {
		if u.samples[i].fail != "" {
			f++
		}
	}
	return f
}

// summaries reduces the timed reps that passed to one summary per
// end-to-end metric.  Host metrics are medians over reps; set-up happens
// once.
func (u *untraced) summaries() map[string]summary {
	col := map[string][]float64{}
	n := float64(u.in.n)
	for i := range u.samples[1:] {
		s := &u.samples[1+i]
		if s.fail != "" {
			continue
		}
		col["sort_mbps"] = append(col["sort_mbps"], 4*n/1e6/s.seconds())
		col["cpu_ns_per_key"] = append(col["cpu_ns_per_key"], float64(s.CPU.Nanoseconds())/n)
		col["alloc_bytes_per_key"] = append(col["alloc_bytes_per_key"], float64(s.AllocBytes)/n)
		col["mallocs_per_key"] = append(col["mallocs_per_key"], float64(s.Mallocs)/n)
		col["peak_rss_mb"] = append(col["peak_rss_mb"], s.peakRSSMB)
		col["vsec"] = append(col["vsec"], s.vsec)
		col["block_ios"] = append(col["block_ios"], float64(s.blockIOs))
		col["sublist_expansion"] = append(col["sublist_expansion"], s.expansion)
	}
	col["setup_s"] = []float64{u.setup}
	out := map[string]summary{}
	for name, xs := range col {
		out[name] = summarize(xs)
	}
	return out
}
