package hetsort

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"

	"hetsort/internal/cluster"
	"hetsort/internal/extsort"
	"hetsort/internal/record"
)

// SortFile sorts a host file of little-endian uint32 values into
// outputPath using the configured cluster.  Each node reads its
// perf-proportional contiguous portion of the input onto its disk,
// Algorithm 1 runs, and each node's sorted partition is written into
// the output file at its rank's offset, as it is verified.  The output
// replaces outputPath only once the run has succeeded, and outputPath
// must be a regular file or not exist.  When cfg.WorkDir is empty the
// node disks live in memory, so the input must fit in RAM; set WorkDir
// for genuinely out-of-core runs.
func SortFile(inputPath, outputPath string, cfg Config) (*Report, error) {
	outputPath, old, err := outputTarget(outputPath)
	if err != nil {
		return nil, err
	}
	m, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	defer m.release()

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
	if m.InputSum, err = extsort.StageFile(m.c, m.Perf, in, st.Size()/record.KeySize, m.BlockKeys, "input"); err != nil {
		return nil, err
	}
	return m.toFile(outputPath, old, false)
}

// outputTarget resolves the output path: the file it names, symbolic
// links followed, and that file's info, or nil when there is none yet.
// Anything there but a regular file is refused.
func outputTarget(path string) (string, fs.FileInfo, error) {
	st, err := os.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return path, nil, nil
	}
	if err == nil && !st.Mode().IsRegular() {
		err = fmt.Errorf("hetsort: output %s is not a regular file", path)
	}
	if err == nil {
		path, err = filepath.EvalSymlinks(path)
	}
	return path, st, err
}

// toFile runs the staged sort, or resumes it, with the verification pass
// landing the output, each node's keys at their byte offset, in a new
// file beside path.  That file replaces path, keeping old's permissions,
// only once the run has succeeded: a failed run leaves path as it was.
func (m *machine) toFile(path string, old fs.FileInfo, resume bool) (*Report, error) {
	tmp := filepath.Join(filepath.Dir(path), fmt.Sprintf(".%s.%016x", filepath.Base(path), rand.Uint64()))
	out, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, err
	}
	m.Land = func(int64) (extsort.Lander, error) {
		return func(off int64, keys []record.Key) error {
			record.DiskOrder(keys)
			_, err := out.WriteAt(record.Bytes(keys), off*record.KeySize)
			return err
		}, nil
	}
	rep, err := m.Run(m.c, m.algo, resume)
	if err == nil && old != nil {
		err = out.Chmod(old.Mode().Perm())
	}
	if err = cmp.Or(err, out.Close()); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return nil, err
	}
	return rep, nil
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
	if cfg.Algorithm != AlgorithmExternalPSRS {
		return nil, fmt.Errorf("hetsort: cannot resume algorithm %v (checkpointing is %v only)", cfg.Algorithm, AlgorithmExternalPSRS)
	}
	outputPath, old, err := outputTarget(outputPath)
	if err != nil {
		return nil, err
	}
	m, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return m.toFile(outputPath, old, true)
}

// IsCrash reports whether err was caused by an injected node crash (see
// CheckpointConfig): the run died mid-sort but its checkpoints survive,
// so Resume can finish it.
func IsCrash(err error) bool { return cluster.IsCrash(err) }
