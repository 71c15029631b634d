package polyphase

import (
	"errors"
	"fmt"
	"io"
	"slices"

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
	Keys   int64 // keys sorted
	Runs   int64 // initial runs formed
	Phases int64 // polyphase merge phases
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
	keys    int64 // keys in the file, once written

	rf diskio.File
	r  *diskio.Reader
	wf diskio.File
	w  *diskio.Writer
}

func (t *tape) total() int64 { return int64(len(t.runs)) + t.dummies }

func (t *tape) becomeOutput() error {
	t.close()
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
	t.keys = t.w.KeysWritten()
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
	start   int64   // and where the run starts on it
	curLen  int64
	observe Observer // or nil
}

func newDistributor(inputs []*tape) *distributor {
	d := &distributor{tapes: inputs, target: make([]int64, len(inputs)), placed: make([]int64, len(inputs))}
	for i := range d.target {
		d.target[i] = 1
	}
	return d
}

// levelUp advances the perfect distribution one level:
// a'[i] = a[0] + a[i+1] (with a[k] = 0).
func (d *distributor) levelUp() {
	next := append(slices.Clone(d.target[1:]), 0)
	for i := range next {
		next[i] += d.target[0]
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
	t := d.tapes[d.cur]
	d.start, d.curLen = t.w.KeysWritten(), 0
	return t.block - int(t.w.KeysWritten()%int64(t.block)), nil
}

func (d *distributor) emitKeys(keys []record.Key) error {
	if d.observe != nil {
		d.observe(d.tapes[d.cur].name, d.start, d.curLen, keys)
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

// An Observer is shown every run a sort writes, formed or merged, chunk
// by chunk in order: the run starts at key start of the tape file, the
// chunk at key off of the run.  A tape is rewritten only once its runs
// are consumed, so a run at start 0 ends every run the tape held before.
// It must not retain a chunk.
type Observer func(tape string, start, off int64, keys []record.Key)

// Sort externally sorts the keys in inputName into outputName using
// polyphase merge sort.  The input file is left untouched; tape files
// are created under cfg.TempPrefix and removed on success.
func Sort(cfg Config, inputName, outputName string) (Stats, error) {
	return SortObserved(cfg, inputName, outputName, nil)
}

// SortObserved is Sort showing observe every run it writes; the output
// is the last.
func SortObserved(cfg Config, inputName, outputName string, observe Observer) (Stats, error) {
	_, stats, err := sortTapes(cfg, inputName, outputName, observe)
	return stats, err
}

// Runs is the sort stopped one merge step short: it returns the runs the
// last step would merge — at most Tapes−1, in that step's source order —
// as sections of tape files the caller removes; the other tapes are gone.
// Stats count the phases completed.
func Runs(cfg Config, inputName string, observe Observer) ([]diskio.Section, Stats, error) {
	return sortTapes(cfg, inputName, "", observe)
}

// sortTapes forms the runs and merges them polyphase, step by step, to
// the end (renaming the tape that holds the last run to outputName) or,
// for an empty outputName, until the next step would be the last.
func sortTapes(cfg Config, inputName, outputName string, observe Observer) (runs []diskio.Section, stats Stats, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, Stats{}, err
	}
	cfg.Acct.Overlap = cfg.Overlap
	tapes := make([]*tape, cfg.Tapes)
	for i := range tapes {
		tapes[i] = &tape{fs: cfg.FS, name: fmt.Sprintf("%stape%d", cfg.TempPrefix, i), block: cfg.BlockKeys, acct: cfg.Acct}
	}
	defer func() {
		for _, t := range tapes {
			t.close()
			if err != nil || !slices.ContainsFunc(runs, func(s diskio.Section) bool { return s.Name == t.name }) {
				cfg.FS.Remove(t.name) // best effort; may not exist
			}
		}
	}()

	for _, t := range tapes[:cfg.Tapes-1] {
		if err := t.becomeOutput(); err != nil {
			return nil, Stats{}, err
		}
	}
	dist := newDistributor(tapes[:cfg.Tapes-1])
	dist.observe = observe
	formed, keys, err := formRuns(cfg.FS, inputName, cfg.BlockKeys, cfg.MemoryKeys,
		cfg.RunFormation, cfg.Acct, dist)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("polyphase: run formation: %w", err)
	}
	dist.finalize()
	for _, t := range dist.tapes {
		if err := t.finishOutput(); err != nil {
			return nil, Stats{}, err
		}
	}
	stats = Stats{Keys: keys, Runs: formed}
	if formed == 0 && outputName != "" { // empty input: an empty output file
		return nil, stats, diskio.WriteFile(cfg.FS, outputName, nil, cfg.BlockKeys, diskio.Accounting{})
	}

	out := tapes[cfg.Tapes-1]
	if err := out.becomeOutput(); err != nil {
		return nil, stats, err
	}
	var inputs []*tape // the phase's
	for left := int64(0); ; left-- {
		if left == 0 { // a phase boundary
			if inputs != nil { // a phase ran: its emptied input tape becomes the next output
				stats.Phases++
				if out, err = nextOutput(tapes, out); err != nil {
					return nil, stats, err
				}
			}
			if holder := lastRun(tapes); holder != nil && outputName != "" {
				// Exactly one real run left: it is the sorted output.
				for _, t := range tapes {
					t.close()
				}
				return nil, stats, cfg.FS.Rename(holder.name, outputName)
			}
			if inputs, left = phase(tapes, out); left == 0 {
				return nil, stats, errors.New("polyphase: input tape empty at phase start")
			}
		}
		if outputName == "" && lastStep(tapes, out) {
			return heads(inputs), stats, nil
		}
		if err := mergeStep(inputs, out, cfg, observe); err != nil {
			return nil, stats, fmt.Errorf("polyphase: merge phase %d: %w", stats.Phases+1, err)
		}
	}
}

// nextOutput ends out's phase: out becomes an input and the input tape
// the phase emptied the next output.
func nextOutput(tapes []*tape, out *tape) (*tape, error) {
	if err := out.finishOutput(); err != nil {
		return nil, err
	}
	for _, t := range tapes {
		if t != out && t.total() == 0 {
			return t, t.becomeOutput()
		}
	}
	return nil, errors.New("polyphase: internal error: no tape emptied during phase")
}

// lastRun returns the tape holding the single remaining real run, or nil
// if more runs remain.
func lastRun(tapes []*tape) (holder *tape) {
	for _, t := range tapes {
		if len(t.runs) > 1 || len(t.runs) == 1 && holder != nil {
			return nil
		} else if len(t.runs) == 1 {
			holder = t
		}
	}
	return holder
}

// phase returns the tapes a merge phase reads, every tape but out, and
// its length: the run count of the shallowest.
func phase(tapes []*tape, out *tape) (inputs []*tape, steps int64) {
	steps = -1
	for _, t := range tapes {
		if t != out {
			inputs = append(inputs, t)
			if steps < 0 || t.total() < steps {
				steps = t.total()
			}
		}
	}
	return inputs, steps
}

// lastStep reports whether the next merge step leaves one run: every real
// run left heads an input tape, with no dummy ahead of it.
func lastStep(tapes []*tape, out *tape) bool {
	for _, t := range tapes {
		if n := len(t.runs); n > 1 || n == 1 && (t == out || t.dummies > 0) {
			return false
		}
	}
	return true
}

// heads returns the real runs heading the input tapes, in tape order.
func heads(inputs []*tape) (runs []diskio.Section) {
	for _, t := range inputs {
		if len(t.runs) == 1 {
			runs = append(runs, diskio.Section{Name: t.name, Off: t.keys - t.runs[0], Keys: t.runs[0]})
		}
	}
	return runs
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
// appends the merged result to out, shown to observe.
func mergeStep(inputs []*tape, out *tape, cfg Config, observe Observer) error {
	var srcs []MergeSource
	for _, t := range inputs {
		if t.dummies > 0 {
			t.dummies--
			continue
		}
		if len(t.runs) == 0 {
			return errors.New("polyphase: input tape under-ran its schedule")
		}
		srcs = append(srcs, &runSource{t: t, remaining: t.runs[0]})
		t.runs = t.runs[1:]
	}
	if len(srcs) == 0 {
		// All contributions were dummies: the output gets a dummy.
		out.dummies++
		return nil
	}
	start, outLen := out.w.KeysWritten(), int64(0)
	emit := func(chunk []record.Key) error {
		if observe != nil {
			observe(out.name, start, outLen, chunk)
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
