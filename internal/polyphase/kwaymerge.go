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
	secs, flat := make([][]diskio.Section, len(inputs)), make([]diskio.Section, len(inputs))
	for i, name := range inputs {
		flat[i] = diskio.Section{Name: name, Keys: -1}
		secs[i] = flat[i : i+1]
	}
	return MergeSections(cfg, secs, outputName)
}

// MergeSections is MergeFiles over sections of files: an input may be a
// sorted range of a larger file (a bucket of Algorithm 1's sorted file),
// read in place with the block charges of a file of its own.  An input of
// several sections (a bucket of step 1's runs) is one leaf, a Merger.
func MergeSections(cfg Config, inputs [][]diskio.Section, outputName string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.Acct.Overlap = cfg.Overlap
	switch {
	case len(inputs) == 0:
		f, err := cfg.FS.Create(outputName)
		if err != nil {
			return err
		}
		return f.Close()
	case len(inputs) == 1 && len(inputs[0]) == 1:
		// Single input: one counted copy pass (the file may be needed
		// again by the caller, so do not rename it away).
		return copyFile(cfg, inputs[0][0], outputName)
	}
	fan := cfg.Tapes - 1
	level := 0
	current := inputs
	var scratch []string
	defer func() {
		for _, name := range scratch {
			cfg.FS.Remove(name)
		}
	}()
	for len(current) > fan {
		var next [][]diskio.Section
		for i := 0; i < len(current); i += fan {
			name := fmt.Sprintf("%smerge%d_%d", cfg.TempPrefix, level, i/fan)
			if err := mergeGroup(cfg, current[i:min(i+fan, len(current))], name); err != nil {
				return err
			}
			scratch = append(scratch, name)
			next = append(next, []diskio.Section{{Name: name, Keys: -1}})
		}
		current = next
		level++
	}
	return mergeGroup(cfg, current, outputName)
}

// mergeGroup streams a single k-way merge of the sorted inputs into out
// through the loser-tree kernel.
func mergeGroup(cfg Config, inputs [][]diskio.Section, out string) error {
	srcs := make([]MergeSource, 0, len(inputs))
	for _, in := range inputs {
		leaf := len(srcs)
		for _, s := range in {
			f, r, err := s.Open(cfg.FS, cfg.BlockKeys, cfg.Acct)
			if err != nil {
				return fmt.Errorf("polyphase: merge open %s: %w", s.Name, err)
			}
			defer f.Close()
			defer r.Release()
			srcs = append(srcs, r)
		}
		if len(in) > 1 { // the sections become one leaf, a Merger over them
			m := new(Merger)
			if err := m.Reset(srcs[leaf:], cfg.Acct.Meter); err != nil {
				return err
			}
			srcs = append(srcs[:leaf], m)
		}
	}
	of, err := cfg.FS.Create(out)
	if err != nil {
		return err
	}
	defer of.Close()
	w := diskio.NewWriter(of, cfg.BlockKeys, cfg.Acct)
	defer w.Close()

	if err := Merge(srcs, cfg.Acct.Meter, w.WriteKeys); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return of.Close()
}

// copyFile copies src to dst through counted block I/O.
func copyFile(cfg Config, src diskio.Section, dst string) error {
	in, r, err := src.Open(cfg.FS, cfg.BlockKeys, cfg.Acct)
	if err != nil {
		return err
	}
	defer in.Close()
	defer r.Release()
	out, err := cfg.FS.Create(dst)
	if err != nil {
		return err
	}
	defer out.Close()
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
