package hetsort

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

// SortFile sorts a host file of little-endian uint32 values into
// outputPath using the configured cluster.  The input is streamed onto
// the node disks in perf-proportional contiguous portions, Algorithm 1
// runs, and the nodes' sorted partitions are concatenated in rank order
// into the output file.  When cfg.WorkDir is empty the node disks live
// in memory, so the input must fit in RAM; set WorkDir for genuinely
// out-of-core runs.
func SortFile(inputPath, outputPath string, cfg Config) (*Report, error) {
	m, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	defer m.release()
	c, block := m.c, m.BlockKeys

	in, err := os.Open(inputPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size()%record.KeySize != 0 {
		return nil, fmt.Errorf("hetsort: input size %d is not a multiple of %d bytes", st.Size(), record.KeySize)
	}
	total := st.Size() / record.KeySize
	shares := m.Perf.Shares(total)

	// Stream each node's contiguous portion onto its disk, folding the
	// checksum as we go.
	var want record.Checksum
	br := bufio.NewReaderSize(in, 1<<20)
	keyBuf := make([]record.Key, block)
	for i := 0; i < c.P(); i++ {
		f, err := c.Node(i).FS().Create("input")
		if err != nil {
			return nil, err
		}
		w := diskio.NewWriter(f, block, diskio.Accounting{})
		remaining := shares[i]
		for remaining > 0 {
			chunk := int64(block)
			if chunk > remaining {
				chunk = remaining
			}
			keys := keyBuf[:chunk]
			if _, err := io.ReadFull(br, record.Bytes(keys)); err != nil {
				f.Close()
				return nil, fmt.Errorf("hetsort: reading input: %w", err)
			}
			record.DiskOrder(keys)
			want.Update(keys)
			if err := w.WriteKeys(keys); err != nil {
				f.Close()
				return nil, err
			}
			remaining -= chunk
		}
		if err := w.Close(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}

	rep, err := m.sort(want)
	if err != nil {
		return nil, err
	}
	if err := concatOutput(c, block, outputPath); err != nil {
		return nil, err
	}
	return rep, nil
}

// concatOutput concatenates the nodes' sorted partitions in rank order
// into the host file outputPath.
func concatOutput(c *cluster.Cluster, block int, outputPath string) error {
	out, err := os.Create(outputPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	keyBuf := make([]record.Key, block)
	for i := 0; i < c.P(); i++ {
		f, err := c.Node(i).FS().Open("output")
		if err != nil {
			out.Close()
			return err
		}
		r := diskio.NewReader(f, block, diskio.Accounting{})
		for {
			n, err := diskio.ReadChunk(r, keyBuf)
			if err == nil && n > 0 {
				record.DiskOrder(keyBuf[:n])
				_, err = bw.Write(record.Bytes(keyBuf[:n]))
			}
			if err != nil {
				r.Release()
				f.Close()
				out.Close()
				return err
			}
			if n == 0 {
				break
			}
		}
		r.Release()
		if err := f.Close(); err != nil {
			out.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Resume continues a SortFile run that was interrupted after being
// started with Checkpoint.Enabled and a WorkDir: the per-node manifests
// under cfg.WorkDir say which phases each node committed, and only the
// missing work is re-run.  On success the completed sorted output is
// written to outputPath and the report covers the resumed run (virtual
// clocks replayed from the last commits, recovery I/O included in the
// block counts).  The configuration must match the interrupted run's.
func Resume(outputPath string, cfg Config) (*Report, error) {
	if cfg.WorkDir == "" {
		return nil, errors.New("hetsort: Resume requires Config.WorkDir (manifests and node disks must be durable)")
	}
	if cfg.Algorithm != "" && cfg.Algorithm != AlgorithmExternalPSRS {
		return nil, fmt.Errorf("hetsort: cannot resume algorithm %q (checkpointing is external-psrs only)", cfg.Algorithm)
	}
	m, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	rep, err := m.Run(m.c, nil, true)
	if err != nil {
		return nil, err
	}
	if err := concatOutput(m.c, m.BlockKeys, outputPath); err != nil {
		return nil, err
	}
	return rep, nil
}

// IsCrash reports whether err was caused by an injected node crash (see
// CheckpointConfig): the run died mid-sort but its checkpoints survive,
// so Resume can finish it.
func IsCrash(err error) bool { return cluster.IsCrash(err) }
