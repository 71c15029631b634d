package polyphase

import (
	"errors"
	"fmt"
	"io"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

// Config parameterises the external sorts in this package.
type Config struct {
	// FS is the filesystem holding the input, output and tape files.
	FS diskio.FS
	// BlockKeys is the PDM block size B in keys.
	BlockKeys int
	// MemoryKeys is the internal memory budget M in keys; run
	// formation uses it as the working-set size.  Must be at least
	// Tapes*BlockKeys so one block per tape fits during merging.
	MemoryKeys int
	// Tapes is the total number of tape files T (the paper used 15
	// intermediate files, i.e. a 14-way polyphase merge).  At least 3.
	Tapes int
	// RunFormation selects the initial run former (default
	// ReplacementSelection).
	RunFormation RunFormation
	// Acct receives I/O counts and virtual-time charges.
	Acct diskio.Accounting
	// Overlap selects overlapped charging (the prefetch and
	// write-behind model) for the tape streams: PDM I/O counts are
	// unchanged; only virtual time hides behind compute.  It replaces
	// Acct.Overlap.
	Overlap diskio.Overlap
	// TempPrefix prefixes tape file names so concurrent sorts on a
	// shared FS do not collide.
	TempPrefix string
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.FS == nil:
		return errors.New("polyphase: nil FS")
	case c.BlockKeys <= 0:
		return fmt.Errorf("polyphase: BlockKeys=%d must be positive", c.BlockKeys)
	case c.Tapes < 3:
		return fmt.Errorf("polyphase: Tapes=%d must be at least 3", c.Tapes)
	case c.MemoryKeys < c.Tapes*c.BlockKeys:
		return fmt.Errorf("polyphase: MemoryKeys=%d too small for %d tapes of %d-key blocks",
			c.MemoryKeys, c.Tapes, c.BlockKeys)
	}
	return nil
}

// Stats reports what a Sort did.
type Stats struct {
	Keys       int64 // keys sorted
	Runs       int64 // initial runs formed
	Phases     int64 // polyphase merge phases
	MergeSteps int64 // individual run merges performed
}

// tape is one of the T files, with in-memory run-boundary metadata.
// Readers are always Released and writers always Closed, even on error
// paths, so an overlapped stream's window never outlives it.
type tape struct {
	fs    diskio.FS
	name  string
	block int
	acct  diskio.Accounting

	runs    []int64 // FIFO of run lengths in keys
	dummies int64

	rf diskio.File
	r  *diskio.Reader
	wf diskio.File
	w  *diskio.Writer
}

func (t *tape) total() int64 { return int64(len(t.runs)) + t.dummies }

func (t *tape) becomeOutput() error {
	if t.rf != nil {
		t.r.Release()
		if err := t.rf.Close(); err != nil {
			return err
		}
		t.rf, t.r = nil, nil
	}
	f, err := t.fs.Create(t.name)
	if err != nil {
		return err
	}
	t.wf = f
	t.w = diskio.NewWriter(f, t.block, t.acct)
	t.runs = t.runs[:0]
	return nil
}

func (t *tape) finishOutput() error {
	if t.w == nil {
		return nil
	}
	if err := t.w.Close(); err != nil {
		return err
	}
	if err := t.wf.Close(); err != nil {
		return err
	}
	t.w, t.wf = nil, nil
	f, err := t.fs.Open(t.name)
	if err != nil {
		return err
	}
	t.rf = f
	t.r = diskio.NewReader(f, t.block, t.acct)
	return nil
}

func (t *tape) close() {
	if t.rf != nil {
		t.r.Release()
		t.rf.Close()
		t.rf, t.r = nil, nil
	}
	if t.wf != nil {
		t.w.Close()
		t.wf.Close()
		t.w, t.wf = nil, nil
	}
}

// distributor implements runSink, routing formed runs onto the T-1 input
// tapes following the generalized-Fibonacci perfect distribution with a
// largest-deficit placement policy, and tracking the dummy-run deficit.
type distributor struct {
	tapes   []*tape // the T-1 input tapes
	target  []int64 // a[i]: perfect-distribution target at current level
	placed  []int64 // real runs placed on tape i
	cur     int     // tape receiving the current run
	curLen  int64
	observe func(off int64, keys []record.Key) // SortObserved's, or nil
}

func newDistributor(inputs []*tape) *distributor {
	d := &distributor{
		tapes:  inputs,
		target: make([]int64, len(inputs)),
		placed: make([]int64, len(inputs)),
	}
	for i := range d.target {
		d.target[i] = 1
	}
	return d
}

// levelUp advances the perfect distribution one level:
// a'[i] = a[0] + a[i+1] (with a[k] = 0).
func (d *distributor) levelUp() {
	k := len(d.target)
	a0 := d.target[0]
	next := make([]int64, k)
	for i := 0; i < k; i++ {
		if i+1 < k {
			next[i] = a0 + d.target[i+1]
		} else {
			next[i] = a0
		}
	}
	d.target = next
}

// pick returns the tape with the largest remaining deficit, levelling up
// first if every tape met its target.
func (d *distributor) pick() int {
	for {
		best, bestDef := -1, int64(0)
		for i := range d.tapes {
			if def := d.target[i] - d.placed[i]; def > bestDef {
				best, bestDef = i, def
			}
		}
		if best >= 0 {
			return best
		}
		d.levelUp()
	}
}

func (d *distributor) beginRun() (int, error) {
	d.cur = d.pick()
	d.curLen = 0
	t := d.tapes[d.cur]
	return t.block - int(t.w.KeysWritten()%int64(t.block)), nil
}

func (d *distributor) emitKeys(keys []record.Key) error {
	if d.observe != nil {
		d.observe(d.curLen, keys)
	}
	d.curLen += int64(len(keys))
	return d.tapes[d.cur].w.WriteKeys(keys)
}

func (d *distributor) endRun() error {
	t := d.tapes[d.cur]
	t.runs = append(t.runs, d.curLen)
	d.placed[d.cur]++
	return nil
}

// finalize computes each tape's dummy count from the unmet targets.
func (d *distributor) finalize() {
	for i, t := range d.tapes {
		t.dummies = d.target[i] - d.placed[i]
	}
}

// Sort externally sorts the keys in inputName into outputName using
// polyphase merge sort.  The input file is left untouched; tape files
// are created under cfg.TempPrefix and removed on success.
func Sort(cfg Config, inputName, outputName string) (Stats, error) {
	return SortObserved(cfg, inputName, outputName, nil)
}

// SortObserved is Sort showing observe, chunk by chunk with each chunk's
// offset in its run, every run formed (one run or many is known only at
// the input's end) and the merge step writing the output.  That is the
// last run written, so an index observe fills by position holds the
// output's keys.  observe must not retain a chunk.
func SortObserved(cfg Config, inputName, outputName string, observe func(off int64, keys []record.Key)) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	cfg.Acct.Overlap = cfg.Overlap
	tapes := make([]*tape, cfg.Tapes)
	for i := range tapes {
		tapes[i] = &tape{
			fs:    cfg.FS,
			name:  fmt.Sprintf("%stape%d", cfg.TempPrefix, i),
			block: cfg.BlockKeys,
			acct:  cfg.Acct,
		}
	}
	defer func() {
		for _, t := range tapes {
			t.close()
			cfg.FS.Remove(t.name) // best effort; may not exist
		}
	}()

	inputs := tapes[:cfg.Tapes-1]
	for _, t := range inputs {
		if err := t.becomeOutput(); err != nil {
			return Stats{}, err
		}
	}
	dist := newDistributor(inputs)
	dist.observe = observe
	runs, keys, err := formRuns(cfg.FS, inputName, cfg.BlockKeys, cfg.MemoryKeys,
		cfg.RunFormation, cfg.Acct, dist)
	if err != nil {
		return Stats{}, fmt.Errorf("polyphase: run formation: %w", err)
	}
	dist.finalize()
	for _, t := range inputs {
		if err := t.finishOutput(); err != nil {
			return Stats{}, err
		}
	}
	stats := Stats{Keys: keys, Runs: runs}

	if runs == 0 {
		// Empty input: produce an empty output file.
		f, err := cfg.FS.Create(outputName)
		if err != nil {
			return stats, err
		}
		return stats, f.Close()
	}

	out := tapes[cfg.Tapes-1]
	if err := out.becomeOutput(); err != nil {
		return stats, err
	}

	for {
		final, err := finalTape(tapes)
		if err == nil {
			// Exactly one real run left: it is the sorted output.
			final.close()
			for _, t := range tapes {
				t.close()
			}
			if rerr := cfg.FS.Rename(final.name, outputName); rerr != nil {
				return stats, rerr
			}
			return stats, nil
		}
		steps, merr := mergePhase(tapes, out, cfg, observe, keys)
		if merr != nil {
			return stats, fmt.Errorf("polyphase: merge phase %d: %w", stats.Phases+1, merr)
		}
		stats.Phases++
		stats.MergeSteps += steps
		// The emptied input tape becomes the next output.
		if err := out.finishOutput(); err != nil {
			return stats, err
		}
		next := -1
		for i, t := range tapes {
			if t != out && t.total() == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			return stats, errors.New("polyphase: internal error: no tape emptied during phase")
		}
		newOut := tapes[next]
		if err := newOut.becomeOutput(); err != nil {
			return stats, err
		}
		out = newOut
	}
}

// finalTape returns the tape holding the single remaining real run, or
// an error if the merge is not finished.
func finalTape(tapes []*tape) (*tape, error) {
	var holder *tape
	var realRuns int64
	for _, t := range tapes {
		if len(t.runs) > 0 {
			realRuns += int64(len(t.runs))
			holder = t
		}
	}
	if realRuns == 1 {
		return holder, nil
	}
	return nil, fmt.Errorf("polyphase: %d runs remain", realRuns)
}

// mergePhase merges runs from every non-output tape into out until one
// input tape is exhausted, returning the number of merge steps.
func mergePhase(tapes []*tape, out *tape, cfg Config, observe func(int64, []record.Key), keys int64) (int64, error) {
	var inputs []*tape
	for _, t := range tapes {
		if t != out {
			inputs = append(inputs, t)
		}
	}
	steps := int64(0)
	for _, t := range inputs {
		if t.total() == 0 {
			return 0, errors.New("polyphase: input tape empty at phase start")
		}
	}
	// The phase length is the run count of the shallowest input tape.
	phaseLen := inputs[0].total()
	for _, t := range inputs[1:] {
		if tt := t.total(); tt < phaseLen {
			phaseLen = tt
		}
	}
	for s := int64(0); s < phaseLen; s++ {
		if err := mergeStep(inputs, out, cfg, observe, keys); err != nil {
			return steps, err
		}
		steps++
	}
	return steps, nil
}

// runSource adapts one scheduled run on a tape to the merge kernel: it
// exposes the tape reader's buffer truncated to the run's remaining
// length, so the kernel never consumes into the next run on the tape.
type runSource struct {
	t         *tape
	remaining int64
}

func (s *runSource) Buffered() []record.Key {
	b := s.t.r.Buffered()
	if int64(len(b)) > s.remaining {
		b = b[:s.remaining]
	}
	return b
}

func (s *runSource) Discard(n int) {
	s.t.r.Discard(n)
	s.remaining -= int64(n)
}

func (s *runSource) Fill() error {
	if s.remaining == 0 {
		return io.EOF
	}
	if err := s.t.r.Fill(); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the run schedule promised more keys
		}
		return fmt.Errorf("reading run from %s: %w", s.t.name, err)
	}
	return nil
}

// mergeStep consumes one run (real or dummy) from every input tape and
// appends the merged result to out, shown to observe if it has all keys.
func mergeStep(inputs []*tape, out *tape, cfg Config, observe func(int64, []record.Key), keys int64) error {
	var srcs []MergeSource
	var runKeys int64
	for _, t := range inputs {
		if t.dummies > 0 {
			t.dummies--
			continue
		}
		if len(t.runs) == 0 {
			return errors.New("polyphase: input tape under-ran its schedule")
		}
		length := t.runs[0]
		t.runs = t.runs[1:]
		runKeys += length
		srcs = append(srcs, &runSource{t: t, remaining: length})
	}
	if len(srcs) == 0 {
		// All contributions were dummies: the output gets a dummy.
		out.dummies++
		return nil
	}
	var outLen int64
	emit := func(chunk []record.Key) error {
		if observe != nil && runKeys == keys {
			observe(outLen, chunk)
		}
		outLen += int64(len(chunk))
		return out.w.WriteKeys(chunk)
	}
	if err := Merge(srcs, cfg.Acct.Meter, emit); err != nil {
		return err
	}
	out.runs = append(out.runs, outLen)
	return nil
}
