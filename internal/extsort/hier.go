package extsort

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/trace"
)

// tagRoundBase tags the redistribution traffic: round t uses
// tagRoundBase + t, so late rounds queue behind earlier ones on a
// shared link (per-link FIFO) without inter-round barriers.
const tagRoundBase = 400

// treeColl reports whether step 2's collectives and the inter-step
// barriers run on the radix-r tree instead of Algorithm 1's star.
func (w *worker) treeColl() bool {
	return w.cfg.Topology != TopologyFlat && w.n.P() > 1
}

// collRadix is the fan-in of this run's collective tree.
func (w *worker) collRadix() int {
	return collectiveRadix(w.n.P(), w.cfg.Topology, w.cfg.Radix)
}

// The step-2 collectives and the inter-step barriers dispatch on the
// topology: hierarchical runs route every collective through the
// radix-r tree so no node's fan-in exceeds r−1, flat runs keep
// Algorithm 1's star.  TreeGather delivers the root the exact per-rank
// slices of the flat Gather, so the strategies built on these wrappers
// produce bit-identical pivots on either topology.

func (w *worker) barrier(tag int) error {
	if w.treeColl() {
		return w.n.TreeBarrier(w.collRadix(), tag)
	}
	return w.n.Barrier(tag)
}

func (w *worker) gather(tag int, keys []record.Key) ([][]record.Key, error) {
	if w.treeColl() {
		return w.n.TreeGather(w.collRadix(), tag, keys)
	}
	return w.n.Gather(0, tag, keys)
}

func (w *worker) bcast(tag int, keys []record.Key) ([]record.Key, error) {
	if w.treeColl() {
		return w.n.TreeBcast(w.collRadix(), tag, keys)
	}
	return w.n.Bcast(0, tag, keys)
}

func (w *worker) allGather(tag int, keys []record.Key) ([]record.Key, error) {
	if w.treeColl() {
		return w.n.TreeAllGather(w.collRadix(), tag, keys)
	}
	return w.n.AllGather(tag, keys)
}

// roundPrefix prefixes every intermediate bucket file, for the phase-5
// sweep that clears stale intermediates a recovered run may have left
// behind.
const roundPrefix = "hetsort.rt"

// bucketName is the file holding this node's round-t bucket for
// destination d: round 0 reads straight from the step-3 segment files,
// later rounds from the merged intermediates.
func (w *worker) bucketName(t, d int) string {
	if t == 0 {
		return w.segName(d)
	}
	return fmt.Sprintf("%s%d.d%d", roundPrefix, t, d)
}

// levels returns this run's refinement levels.
func (w *worker) levels() []int {
	return topoLevels(w.n.P(), w.cfg.Topology, w.cfg.Radix)
}

// finalInNeighbors returns the peers that stream to this node in the
// final round.
func (w *worker) finalInNeighbors() []int {
	lv := w.levels()
	return roundInNeighbors(w.n.ID(), lv[len(lv)-2], 1, w.n.P())
}

// finalInputs recomputes the final-merge input files — the node's own
// last-round bucket plus one receive file per final-round in-neighbor —
// without executing any round.  A resumed node that already committed
// phase 4 uses this to locate the durable inputs its manifest listed.
func (w *worker) finalInputs() []string {
	names := []string{w.bucketName(len(w.levels())-2, w.n.ID())}
	for _, i := range w.finalInNeighbors() {
		names = append(names, w.recvName(i))
	}
	return names
}

// fusedFits reports whether a fused final round fed by the given number
// of in-neighbor streams fits memory: one message buffer and one
// tee-writer block per stream (the tee only runs under Checkpoint, but
// is budgeted either way), plus the own-bucket reader's and the output
// writer's blocks.
func (c Config) fusedFits(streams int) bool {
	return (c.MessageKeys+c.BlockKeys)*streams+2*c.BlockKeys <= c.MemoryKeys
}

// blockFile is a block writer together with the file it writes.
type blockFile struct {
	diskio.BlockWriter
	f diskio.File
}

func (w *worker) createBlockFile(name string) (*blockFile, error) {
	f, err := w.n.FS().Create(name)
	if err != nil {
		return nil, err
	}
	return &blockFile{diskio.NewBlockWriter(f, w.cfg.BlockKeys, w.n.Acct(), w.overlap()), f}, nil
}

// Close flushes the writer and closes the file; the first error wins.
func (b *blockFile) Close() error {
	err := b.BlockWriter.Close()
	if ferr := b.f.Close(); err == nil {
		err = ferr
	}
	return err
}

// redistribute is steps 4–5's data movement on every topology: one
// all-to-all round on the flat topology (levels {p, 1}, Algorithm 1 as
// written), ⌈log_r p⌉ rounds of r-way exchanges on a tree, two on the
// grid.  Round t refines rank blocks of lv[t] nodes into sub-blocks of
// lv[t+1]: every node streams each of its buckets to the representative
// of the destination's sub-block (routeStep) and merges the incoming
// streams per destination with its own bucket, so after the last round
// (sub-blocks of 1) node d holds exactly partition d.  A node's own
// bucket never travels: it stays on disk and is read once, by the merge
// that consumes it.  Each round is send-all-then-receive-all on its own
// tag; buffered links make sends non-blocking and per-link FIFO keeps
// rounds ordered, so no inter-round barrier is needed and no node ever
// holds more than its round in-degree of open streams.
//
// All nodes run all rounds — on a resumed run the nodes already past
// phase 4 act as pure forwarders, re-routing the needy destinations'
// data from their retained segment files — and both senders and
// receivers apply the same needy filter, so only lost partitions flow.
// Returns the final-merge input files and their key counts (for the
// phase-4 manifest), and whether the output was already merged
// in-stream (fused).
func (w *worker) redistribute(needy []bool, fused bool) (inputs []string, counts []int64, merged bool, err error) {
	n := w.n
	p, id := n.P(), n.ID()
	lv := w.levels()
	T := len(lv) - 1
	n.Metrics().Gauge("redist.rounds").Set(float64(T))
	maxFan := 1
	for t := 0; t < T; t++ {
		s, sub := lv[t], lv[t+1]
		tag := tagRoundBase + t
		endRound := n.TracePhase(fmt.Sprintf("%s/round%d", StepNames[3], t))

		// Send half: every bucket whose destination's sub-block is led
		// elsewhere streams to that sub-block's representative,
		// destinations in ascending order (the receivers drain in the
		// same order; per-link FIFO aligns the frames).
		bs := id / s * s
		hi := bs + s
		if hi > p {
			hi = p
		}
		var sent int64
		for lo := bs; lo < hi; lo += sub {
			subEnd := lo + sub
			if subEnd > hi {
				subEnd = hi
			}
			rep := routeStep(id, lo, s, sub, p)
			if rep == id {
				continue // own sub-block: buckets stay local
			}
			for d := lo; d < subEnd; d++ {
				if !needy[d] {
					continue
				}
				k, serr := w.sendBucket(rep, tag, t, d)
				if serr != nil {
					endRound()
					return nil, nil, false, serr
				}
				sent += k
			}
		}
		n.Metrics().Counter(fmt.Sprintf("redist.r%d.sent.keys", t)).Add(sent)

		// Receive half: merge own bucket with the in-neighbors' streams
		// for every needy destination of the node's new sub-block.
		nbrs := roundInNeighbors(id, s, sub, p)
		if f := len(nbrs) + 1; f > maxFan {
			maxFan = f
		}
		n.Metrics().Gauge(fmt.Sprintf("redist.r%d.fanin", t)).Set(float64(len(nbrs) + 1))
		slo := id / sub * sub
		sEnd := slo + sub
		if sEnd > hi {
			sEnd = hi
		}
		for d := slo; d < sEnd; d++ {
			if !needy[d] {
				continue
			}
			if sub > 1 {
				err = w.advanceBucket(t, tag, d, nbrs)
			} else {
				// Final round: the destination is the node itself.
				inputs, counts, err = w.landFinal(t, tag, nbrs, fused)
				merged = fused && err == nil
			}
			if err != nil {
				endRound()
				return nil, nil, false, err
			}
		}
		n.Metrics().Gauge(fmt.Sprintf("redist.r%d.queue.hwm", t)).Set(float64(n.MaxInQueueHWM()))
		endRound()
	}
	n.Metrics().Gauge("redist.fanin.streams").Set(float64(maxFan))
	if !needy[id] {
		// A forwarder's final-merge inputs are the durable files its
		// earlier phase-4 manifest listed.
		inputs = w.finalInputs()
	}
	return inputs, counts, merged, nil
}

// removeBucket applies the retention rules after a bucket was consumed
// (sent or merged forward): intermediates go unless debugging keeps
// them; round-0 buckets are the step-3 segments, which Checkpoint
// retains until phase 5 commits so a recovered peer can ask for them
// again.
func (w *worker) removeBucket(t, d int) error {
	if w.cfg.KeepIntermediates || (t == 0 && w.cfg.Checkpoint) {
		return nil
	}
	if err := w.n.FS().Remove(w.bucketName(t, d)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// sendBucket streams this node's round-t bucket for destination d to
// node `to` in MessageKeys-sized messages, terminated by the zero-length
// sentinel, and returns the key count sent.  Payloads are pooled buffers
// whose ownership transfers with the message (SendOwned), so
// redistribution allocates nothing steady-state.  On a resumed run a
// node already past phase 4 is re-sending retained data to a peer whose
// in-flight messages died with the crash; that is traced as a "resend"
// recovery event.
func (w *worker) sendBucket(to, tag, t, d int) (sent int64, err error) {
	n, cfg := w.n, w.cfg
	name := w.bucketName(t, d)
	if w.done() >= 4 {
		n.TraceEvent(trace.Recovery, "resend", fmt.Sprintf("%s for node %d -> node %d", name, d, to))
	}
	f, err := n.FS().Open(name)
	if err != nil {
		return 0, err
	}
	r := diskio.NewBlockReader(f, cfg.BlockKeys, n.Acct(), w.overlap())
	for err == nil {
		buf := n.AcquireBuf(cfg.MessageKeys)
		var cnt int
		if cnt, err = diskio.ReadChunk(r, buf); err != nil || cnt == 0 {
			n.ReleaseBuf(buf)
			break
		}
		err = n.SendOwned(to, tag, buf[:cnt])
		sent += int64(cnt)
	}
	r.Release()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return sent, err
	}
	if err := n.SendOwned(to, tag, nil); err != nil {
		return sent, err
	}
	return sent, w.removeBucket(t, d)
}

// mergeBucket merges this node's round-t bucket for destination d with
// the in-neighbors' streams into the file outName — own-bucket reader
// and streams into one loser tree into one block writer — and returns
// the key count each stream delivered.  With tee set, every stream is
// also written to its hetsort.recv<i> file as it arrives.
func (w *worker) mergeBucket(t, tag, d int, nbrs []int, outName string, tee bool) (counts []int64, err error) {
	n := w.n
	f, err := n.FS().Open(w.bucketName(t, d))
	if err != nil {
		return nil, err
	}
	r := diskio.NewBlockReader(f, w.cfg.BlockKeys, n.Acct(), w.overlap())
	srcs := []polyphase.MergeSource{r}
	streams := make([]*cluster.Stream, 0, len(nbrs))
	var tees []*blockFile
	defer func() {
		for _, s := range streams {
			s.Close()
		}
		r.Release() // joins any prefetch goroutine before f closes
		f.Close()
		for _, b := range tees {
			if cerr := b.Close(); err == nil {
				err = cerr
			}
		}
	}()
	for _, nb := range nbrs {
		s := n.OpenStream(nb, tag)
		streams = append(streams, s)
		srcs = append(srcs, s)
		if tee {
			b, err := w.createBlockFile(w.recvName(nb))
			if err != nil {
				return nil, err
			}
			tees = append(tees, b)
			s.Tee = b.WriteKeys
		}
	}
	out, err := w.createBlockFile(outName)
	if err != nil {
		return nil, err
	}
	err = polyphase.MergeOpt(srcs, n, out.WriteKeys, polyphase.MergeOptions{NoGallop: w.cfg.NoGalloping})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	counts = make([]int64, len(streams))
	for i, s := range streams {
		counts[i] = s.Received()
	}
	return counts, nil
}

// advanceBucket turns this node's round-t bucket for destination d into
// its round-(t+1) bucket, merging in the in-neighbors' streams.  With no
// in-neighbors the bucket advances by rename — except a round-0 segment
// that checkpointing must retain, which is copied with counted I/O
// instead.
func (w *worker) advanceBucket(t, tag, d int, nbrs []int) error {
	old, next := w.bucketName(t, d), w.bucketName(t+1, d)
	if len(nbrs) == 0 {
		if t == 0 && (w.cfg.Checkpoint || w.cfg.KeepIntermediates) {
			return polyphase.MergeFiles(w.polyCfg("hetsort.s4."), []string{old}, next)
		}
		return w.n.FS().Rename(old, next)
	}
	if _, err := w.mergeBucket(t, tag, d, nbrs, next, false); err != nil {
		return err
	}
	return w.removeBucket(t, d)
}

// landFinal is the final round at a needy node.  Fused (Pipeline), the
// own bucket and the in-neighbors' streams merge straight into the
// output file, teed to durable receive files when checkpointing so the
// phase-4 manifest has its inputs; otherwise each stream spools to its
// receive file and step 5 merges them with the own bucket, which stays
// on disk either way.  Returns the final-merge inputs and their counts.
func (w *worker) landFinal(t, tag int, nbrs []int, fused bool) (inputs []string, counts []int64, err error) {
	n := w.n
	own := w.bucketName(t, n.ID())
	ownKeys, err := diskio.CountKeys(n.FS(), own)
	if err != nil {
		return nil, nil, err
	}
	inputs, counts = []string{own}, []int64{ownKeys}
	for _, nb := range nbrs {
		inputs = append(inputs, w.recvName(nb))
	}
	if fused {
		mode := "fused"
		if w.cfg.Checkpoint {
			mode = "spill"
		}
		n.TraceEvent(trace.Pipeline, mode, fmt.Sprintf("fan-in:%d msg:%d", len(nbrs)+1, w.cfg.MessageKeys))
		got, err := w.mergeBucket(t, tag, n.ID(), nbrs, w.output, w.cfg.Checkpoint)
		return inputs, append(counts, got...), err
	}
	for _, nb := range nbrs {
		got, err := w.spool(nb, tag)
		if err != nil {
			return nil, nil, err
		}
		counts = append(counts, got)
	}
	return inputs, counts, nil
}

// spool drains peer nb's stream into its receive file.  Keys from one
// peer arrive sorted (every bucket is a slice of a sorted file), so the
// receive file is sorted.  Returns the key count received.
func (w *worker) spool(nb, tag int) (int64, error) {
	b, err := w.createBlockFile(w.recvName(nb))
	if err != nil {
		return 0, err
	}
	for {
		keys, err := w.n.Recv(nb, tag)
		if err == nil && len(keys) > 0 {
			err = b.WriteKeys(keys)
			w.n.ReleaseBuf(keys)
		}
		if err != nil {
			b.Close()
			return 0, err
		}
		if len(keys) == 0 {
			return b.KeysWritten(), b.Close()
		}
	}
}

// cleanStaleRounds removes any leftover intermediate bucket files — a
// crashed multi-round run can orphan rt files for destinations that
// were no longer needy on the retry.  Swept once, after phase 5 commits.
func (w *worker) cleanStaleRounds() error {
	names, err := w.n.FS().Names()
	if err != nil {
		return err
	}
	for _, name := range names {
		if strings.HasPrefix(name, roundPrefix) {
			if err := w.n.FS().Remove(name); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	return nil
}
