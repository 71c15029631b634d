package polyphase

import (
	"fmt"

	"hetsort/internal/diskio"
)

// MergeFiles merges the pre-sorted key files named by inputs into
// outputName using balanced (Tapes-1)-way merging, possibly in several
// passes.  This is the "external merge algorithm for mono-processor
// system" the paper re-uses for step 5 of Algorithm 1 (each node merges
// the p partition files it received).  Inputs are left untouched;
// intermediate files are created under cfg.TempPrefix and removed.
func MergeFiles(cfg Config, inputs []string, outputName string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.Acct.Overlap = cfg.Overlap
	switch len(inputs) {
	case 0:
		f, err := cfg.FS.Create(outputName)
		if err != nil {
			return err
		}
		return f.Close()
	case 1:
		// Single input: one counted copy pass (the file may be needed
		// again by the caller, so do not rename it away).
		return copyFile(cfg, inputs[0], outputName)
	}
	fan := cfg.Tapes - 1
	level := 0
	current := append([]string(nil), inputs...)
	var scratch []string
	defer func() {
		for _, name := range scratch {
			cfg.FS.Remove(name)
		}
	}()
	for len(current) > fan {
		var next []string
		for i := 0; i < len(current); i += fan {
			end := i + fan
			if end > len(current) {
				end = len(current)
			}
			name := fmt.Sprintf("%smerge%d_%d", cfg.TempPrefix, level, i/fan)
			if err := mergeGroup(cfg, current[i:end], name); err != nil {
				return err
			}
			scratch = append(scratch, name)
			next = append(next, name)
		}
		current = next
		level++
	}
	return mergeGroup(cfg, current, outputName)
}

// mergeGroup streams a single k-way merge of the sorted inputs into out
// through the loser-tree kernel.
func mergeGroup(cfg Config, inputs []string, out string) error {
	files := make([]diskio.File, len(inputs))
	srcs := make([]MergeSource, len(inputs))
	readers := make([]*diskio.Reader, len(inputs))
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Release()
			}
		}
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i, name := range inputs {
		f, err := cfg.FS.Open(name)
		if err != nil {
			return fmt.Errorf("polyphase: merge open %s: %w", name, err)
		}
		files[i] = f
		readers[i] = diskio.NewReader(f, cfg.BlockKeys, cfg.Acct)
		srcs[i] = readers[i]
	}
	of, err := cfg.FS.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	w := diskio.NewWriter(of, cfg.BlockKeys, cfg.Acct)
	defer w.Close()

	if err := MergeOpt(srcs, cfg.Acct.Meter, w.WriteKeys, MergeOptions{NoGallop: cfg.NoGallop}); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return of.Close()
}

// copyFile copies src to dst through counted block I/O.
func copyFile(cfg Config, src, dst string) error {
	in, err := cfg.FS.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := cfg.FS.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
	r := diskio.NewReader(in, cfg.BlockKeys, cfg.Acct)
	defer r.Release()
	w := diskio.NewWriter(out, cfg.BlockKeys, cfg.Acct)
	defer w.Close()
	buf := make([]uint32, cfg.BlockKeys)
	for {
		n, err := diskio.ReadChunk(r, buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if err := w.WriteKeys(buf[:n]); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return out.Close()
}
