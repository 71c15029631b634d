package polyphase

import (
	"fmt"
	"io"
	"slices"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// RunFormation selects how initial sorted runs are produced.
type RunFormation int

const (
	// ReplacementSelection streams the input through a selection heap
	// of MemoryKeys entries, producing runs that average twice the
	// memory size on random input (Knuth §5.4.1).  This is the classic
	// tape-era technique and the package default.
	ReplacementSelection RunFormation = iota
	// LoadSort reads memory-sized loads and sorts each in core ("each
	// memory load is sorted into a single run", paper §2), producing
	// runs of exactly MemoryKeys keys.
	LoadSort
	// Guidesort sorts memory loads like LoadSort but keeps a one-key
	// "guide" — the largest key emitted so far — and extends the current
	// run across load boundaries whenever the next sorted load starts at
	// or above it.  One comparison per load replaces replacement
	// selection's per-key heap traffic, giving a PDM-optimal single pass
	// that still exploits presortedness (Guidesort's pass structure).
	Guidesort
)

func (rf RunFormation) String() string {
	switch rf {
	case ReplacementSelection:
		return "replacement-selection"
	case Guidesort:
		return "guidesort"
	default:
		return "load-sort"
	}
}

// runSink receives each formed run: length in keys, and the keys are
// delivered through the provided writer callback sequence.
type runSink interface {
	// beginRun announces a new run; subsequent emit calls belong to it
	// until endRun.
	beginRun() error
	emit(k record.Key) error
	endRun() error
}

// formRuns reads the whole input file and emits sorted runs to sink.
// memoryKeys bounds the in-core working set.  Returns the number of runs
// and keys processed.
func formRuns(
	fs diskio.FS, inputName string, blockKeys, memoryKeys int,
	how RunFormation, acct diskio.Accounting, sink runSink,
) (runs int64, keys int64, err error) {
	in, err := fs.Open(inputName)
	if err != nil {
		return 0, 0, fmt.Errorf("polyphase: opening input: %w", err)
	}
	defer in.Close()
	r := diskio.NewReader(in, blockKeys, acct)
	defer r.Release()
	meter := acct.Meter
	if meter == nil {
		meter = vtime.Nop{}
	}
	switch how {
	case ReplacementSelection:
		return formRunsReplacement(r, memoryKeys, meter, sink)
	case LoadSort:
		return formRunsLoadSort(r, memoryKeys, meter, sink)
	case Guidesort:
		return formRunsGuidesort(r, memoryKeys, meter, sink)
	default:
		return 0, 0, fmt.Errorf("polyphase: unknown run formation %d", how)
	}
}

func formRunsReplacement(r *diskio.Reader, memoryKeys int, meter vtime.Meter, sink runSink) (int64, int64, error) {
	h := newSelectionHeap(memoryKeys, meter)
	var total int64
	// Prime the heap.
	for h.len() < memoryKeys {
		k, err := r.ReadKey()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		h.push(selectionItem{key: k, run: 0})
		total++
	}
	if h.len() == 0 {
		return 0, 0, nil
	}
	var runs int64
	current := int64(0)
	inRun := false
	var lastOut record.Key
	for h.len() > 0 {
		it := h.peek()
		if it.run != current {
			// Current run exhausted; start the next one.
			if inRun {
				if err := sink.endRun(); err != nil {
					return runs, total, err
				}
				inRun = false
			}
			current = it.run
		}
		if !inRun {
			if err := sink.beginRun(); err != nil {
				return runs, total, err
			}
			runs++
			inRun = true
		}
		if err := sink.emit(it.key); err != nil {
			return runs, total, err
		}
		lastOut = it.key
		// Refill from input: a key >= lastOut can extend the current
		// run; a smaller key is demoted to the next run.
		next, err := r.ReadKey()
		switch err {
		case nil:
			total++
			meter.ChargeCompute(1)
			if next >= lastOut {
				h.replaceTop(selectionItem{key: next, run: current})
			} else {
				h.replaceTop(selectionItem{key: next, run: current + 1})
			}
		case io.EOF:
			h.pop()
		default:
			return runs, total, err
		}
	}
	if inRun {
		if err := sink.endRun(); err != nil {
			return runs, total, err
		}
	}
	return runs, total, nil
}

func formRunsLoadSort(r *diskio.Reader, memoryKeys int, meter vtime.Meter, sink runSink) (int64, int64, error) {
	load := make([]record.Key, memoryKeys)
	var runs, total int64
	for {
		n, err := diskio.ReadChunk(r, load)
		if err != nil || n == 0 {
			return runs, total, err
		}
		chunk := load[:n]
		slices.Sort(chunk)
		meter.ChargeCompute(nLogN(int64(n)))
		if err := sink.beginRun(); err != nil {
			return runs, total, err
		}
		runs++
		total += int64(n)
		for _, k := range chunk {
			if serr := sink.emit(k); serr != nil {
				return runs, total, serr
			}
		}
		if serr := sink.endRun(); serr != nil {
			return runs, total, serr
		}
	}
}

// formRunsGuidesort sorts memory loads and coalesces consecutive loads
// into one run when the guide comparison allows it: if the new load's
// smallest key is at least the largest key already emitted, the run
// simply continues.  On sorted or near-sorted input the whole file
// becomes a single run for one comparison per load; on random input it
// degrades gracefully to LoadSort's run lengths.
func formRunsGuidesort(r *diskio.Reader, memoryKeys int, meter vtime.Meter, sink runSink) (int64, int64, error) {
	load := make([]record.Key, memoryKeys)
	var runs, total int64
	inRun := false
	var lastMax record.Key
	endIfOpen := func() error {
		if !inRun {
			return nil
		}
		inRun = false
		return sink.endRun()
	}
	for {
		n, err := diskio.ReadChunk(r, load)
		if err != nil {
			return runs, total, err
		}
		if n == 0 {
			return runs, total, endIfOpen()
		}
		chunk := load[:n]
		slices.Sort(chunk)
		meter.ChargeCompute(nLogN(int64(n)))
		if inRun {
			// The guide comparison: does this load extend the run?
			meter.ChargeCompute(1)
			if chunk[0] < lastMax {
				if serr := endIfOpen(); serr != nil {
					return runs, total, serr
				}
			}
		}
		if !inRun {
			if serr := sink.beginRun(); serr != nil {
				return runs, total, serr
			}
			runs++
			inRun = true
		}
		total += int64(n)
		for _, k := range chunk {
			if serr := sink.emit(k); serr != nil {
				return runs, total, serr
			}
		}
		lastMax = chunk[n-1]
	}
}

// nLogN approximates the comparison count of an in-core sort of n keys.
func nLogN(n int64) int64 {
	if n <= 1 {
		return n
	}
	var lg int64
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return n * lg
}
