package polyphase

import (
	"fmt"
	"io"

	"hetsort/internal/diskio"
	"hetsort/internal/enum"
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

var runFormationNames = enum.Table[RunFormation]{Kind: "run formation",
	Names: []string{"replacement-selection", "load-sort", "guidesort"}}

func (rf RunFormation) String() string                { return runFormationNames.Name(rf) }
func (rf RunFormation) MarshalText() ([]byte, error)  { return runFormationNames.Marshal(rf) }
func (rf *RunFormation) UnmarshalText(b []byte) error { return runFormationNames.Unmarshal(rf, b) }

// runSink receives the formed runs, each as beginRun, its keys in order
// over any number of emitKeys calls, endRun.
type runSink interface {
	// beginRun announces a new run.  room is how many keys the sink takes
	// before it next transfers a block, 0 if it has no blocks: a former
	// that charges compute per key ends its chunks there and every
	// blockKeys keys after, so the transfer is charged between the same two
	// keys as if each had been handed over alone.
	beginRun() (room int, err error)
	emitKeys(keys []record.Key) error
	endRun() error
}

// formRuns reads the whole input file and emits sorted runs to sink.
// memoryKeys bounds the in-core working set in keys; blockKeys is the
// block size of the input and of the sink.  Returns the number of runs
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
		return formRunsReplacement(r, blockKeys, memoryKeys, meter, sink)
	case LoadSort, Guidesort:
		return formRunsLoads(r, memoryKeys, how == Guidesort, meter, sink)
	default:
		return 0, 0, fmt.Errorf("polyphase: unknown run formation %d", how)
	}
}

func formRunsReplacement(r *diskio.Reader, blockKeys, memoryKeys int, meter vtime.Meter, sink runSink) (int64, int64, error) {
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
		h.push(packItem(0, k))
		total++
	}
	var runs int64
	var current uint64
	inRun := false
	// in is the unread rest of the reader's block; out collects the run's
	// keys up to the sink's next block boundary, room keys away.
	in := r.Buffered()
	r.Discard(len(in))
	out := make([]record.Key, 0, blockKeys)
	room := blockKeys
	flush := func() error {
		err := sink.emitKeys(out)
		out, room = out[:0], blockKeys
		return err
	}
	endRun := func() error {
		if err := flush(); err != nil {
			return err
		}
		return sink.endRun()
	}
	for h.len() > 0 {
		it := h.peek()
		if run := itemRun(it); run != current || !inRun {
			// Current run exhausted (or none begun); start the next one.
			if inRun {
				if err := endRun(); err != nil {
					return runs, total, err
				}
			}
			current = run
			var err error
			if room, err = sink.beginRun(); err != nil {
				return runs, total, err
			}
			if room <= 0 {
				room = blockKeys
			}
			runs++
			inRun = true
		}
		lastOut := itemKey(it)
		out = append(out, lastOut)
		if len(out) == room {
			if err := flush(); err != nil {
				return runs, total, err
			}
		}
		// Refill from input: a key >= lastOut can extend the current
		// run; a smaller key is demoted to the next run.
		if len(in) == 0 {
			switch err := r.Fill(); err {
			case nil:
				in = r.Buffered()
				r.Discard(len(in))
			case io.EOF:
			default:
				return runs, total, err
			}
		}
		if len(in) == 0 {
			h.pop()
			continue
		}
		next := in[0]
		in = in[1:]
		total++
		meter.ChargeCompute(1)
		run := current
		if next < lastOut {
			if run == maxSelectionRun {
				return runs, total, fmt.Errorf("polyphase: replacement selection is out of run numbers after %d runs", runs)
			}
			run++
		}
		h.replaceTop(packItem(run, next))
	}
	if inRun {
		return runs, total, endRun()
	}
	return runs, total, nil
}

// formRunsLoads is the LoadSort and Guidesort former: it sorts memory
// loads in core, one run per load.  With guide set it coalesces
// consecutive loads into one run when the guide comparison allows it: if
// the new load's smallest key is at least the largest key already
// emitted, the run simply continues.  On sorted or near-sorted input the
// whole file becomes a single run for one comparison per load; on random
// input it degrades gracefully to LoadSort's run lengths.
func formRunsLoads(r *diskio.Reader, memoryKeys int, guide bool, meter vtime.Meter, sink runSink) (int64, int64, error) {
	load := make([]record.Key, 2*memoryKeys)
	load, scratch := load[:memoryKeys], load[memoryKeys:]
	var runs, total int64
	inRun := false
	var lastMax record.Key
	for {
		n, err := diskio.ReadChunk(r, load)
		if err != nil {
			return runs, total, err
		}
		if n == 0 {
			if inRun {
				err = sink.endRun()
			}
			return runs, total, err
		}
		chunk := load[:n]
		record.SortKeys(chunk, scratch)
		meter.ChargeCompute(NLogN(int64(n)))
		if inRun && guide {
			// The guide comparison: does this load extend the run?
			meter.ChargeCompute(1)
		}
		if inRun && (!guide || chunk[0] < lastMax) {
			if err := sink.endRun(); err != nil {
				return runs, total, err
			}
			inRun = false
		}
		if !inRun {
			if _, err := sink.beginRun(); err != nil {
				return runs, total, err
			}
			runs++
			inRun = true
		}
		total += int64(n)
		if err := sink.emitKeys(chunk); err != nil {
			return runs, total, err
		}
		lastMax = chunk[n-1]
	}
}

// NLogN approximates the comparison count of an in-core sort of n keys,
// n·⌊log₂ n⌋: the compute every in-core sort of a load is charged.
func NLogN(n int64) int64 {
	if n <= 1 {
		return n
	}
	var lg int64
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return n * lg
}
