package extsort

import (
	"fmt"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/polyphase"
	"hetsort/internal/trace"
)

// tagRoundBase tags the redistribution traffic: round t uses
// tagRoundBase + t, so late rounds queue behind earlier ones on a
// shared link (per-link FIFO) without inter-round barriers.
const tagRoundBase = 400

// roundPrefix prefixes every intermediate bucket file (swept by cleanup).
const roundPrefix = "hetsort.rt"

// bucket is this node's round-t bucket for destination d: the section of
// the sorted file between cuts d and d+1 in round 0 — and for as long as no
// round has merged a peer's keys into it (ownRounds) — then the merged
// intermediate of the round before.  Which of the two follows from the
// routing alone, so a resumed node finds the buckets it left.
func (w *worker) bucket(t, d int) diskio.Section {
	if t <= w.ownRounds {
		return diskio.Section{Name: sortedName, Off: w.cuts[d], Keys: w.cuts[d+1] - w.cuts[d]}
	}
	return diskio.Section{Name: fmt.Sprintf("%s%d.d%d", roundPrefix, t, d), Keys: -1}
}

// dropBucket removes a consumed bucket (sent or merged forward) unless it
// is a section of the sorted file, which stays whole until step 5's
// cleanup so that a recovered peer can be sent any bucket again.
func (w *worker) dropBucket(b diskio.Section) error {
	if b.Name == sortedName {
		return nil
	}
	return w.remove(b.Name)
}

// finalInNeighbors returns the peers that stream to this node in the
// final round.
func (w *worker) finalInNeighbors() []int {
	return roundInNeighbors(w.n.ID(), w.lv[len(w.lv)-2], 1, w.n.P())
}

// finalInputs lists the final-merge inputs — the node's own last-round
// bucket plus one receive file per final-round in-neighbor.  They follow
// from the routing alone, so a resumed node that already committed phase
// 4 finds the durable inputs its manifest listed.
func (w *worker) finalInputs() []diskio.Section {
	ins := []diskio.Section{w.bucket(len(w.lv)-2, w.n.ID())}
	for _, i := range w.finalInNeighbors() {
		ins = append(ins, diskio.Section{Name: w.recvName(i), Keys: -1})
	}
	return ins
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
	*diskio.Writer
	f diskio.File
}

func (w *worker) createBlockFile(name string) (*blockFile, error) {
	f, err := w.n.FS().Create(name)
	if err != nil {
		return nil, err
	}
	return &blockFile{diskio.NewWriter(f, w.cfg.BlockKeys, w.acct()), f}, nil
}

// Close flushes the writer and closes the file; the first error wins.
func (b *blockFile) Close() error {
	err := b.Writer.Close()
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
// tag; a link is an unbounded FIFO, so sends never block and per-link
// order keeps rounds apart: no inter-round barrier is needed and no node
// ever holds more than its round in-degree of open streams.
//
// All nodes run all rounds — on a resumed run the nodes already past
// phase 4 act as pure forwarders, re-routing the needy destinations'
// data from their sorted files — and both senders and
// receivers apply the same needy filter, so only lost partitions flow.
// Leaves in w.merged whether the output was already merged in-stream.
func (w *worker) redistribute() error {
	n := w.n
	p, id := n.P(), n.ID()
	// Needy nodes (phase 4 not committed) re-receive everything.
	needy := make([]bool, p)
	for j := range needy {
		needy[j] = w.plan == nil || w.plan.Done[j] < 4
	}
	// A needy node fuses step 5 into this step whenever it fits: the
	// final round's streams are merged straight into the output file
	// while the messages arrive.  The fused work (receive, merge compute,
	// output writes) is all attributed to step 4's window; step 5 then
	// only commits.  The barrier path is the fallback for a final round
	// whose fan-in — p at radix p, O(r) below — would not fit its message
	// buffers in memory.  The rule reads only fingerprinted parameters,
	// so a node past phase 4 — needy when it committed it — knows that
	// it already merged its output whenever the rule holds.
	streams := len(w.finalInNeighbors())
	fused := w.cfg.fusedFits(streams)
	if !fused && needy[id] {
		n.TraceEvent(trace.Pipeline, "fallback",
			fmt.Sprintf("fan-in %d x %d-key messages exceeds MemoryKeys=%d", streams+1, w.cfg.MessageKeys, w.cfg.MemoryKeys))
	}
	w.merged = fused && !needy[id]
	lv := w.lv
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
				k, serr := w.sendBucket(rep, tag, w.bucket(t, d), d)
				if serr != nil {
					endRound()
					return serr
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
			var err error
			if sub > 1 {
				err = w.advanceBucket(t, tag, d, nbrs)
			} else {
				// Final round: the destination is the node itself.
				err = w.landFinal(t, tag, nbrs, fused)
				w.merged = fused
			}
			if err != nil {
				endRound()
				return err
			}
		}
		n.Metrics().Gauge(fmt.Sprintf("redist.r%d.queue.hwm", t)).Set(float64(n.MaxInQueueHWM()))
		endRound()
	}
	n.Metrics().Gauge("redist.fanin.streams").Set(float64(maxFan))
	return nil
}

// sendBucket streams bucket b, this node's keys for destination d, to
// node `to` in MessageKeys-sized messages, terminated by the zero-length
// sentinel, and returns the key count sent.  An empty section (most
// buckets of a small portion at large p) opens nothing.  Payloads are
// pooled buffers whose ownership transfers with the message (SendOwned),
// so redistribution allocates nothing steady-state.  On a resumed run a
// node already past phase 4 is re-sending retained data to a peer whose
// in-flight messages died with the crash; that is traced as a "resend"
// recovery event.
func (w *worker) sendBucket(to, tag int, b diskio.Section, d int) (sent int64, err error) {
	n, cfg := w.n, w.cfg
	if w.done() >= 4 {
		label := b.Name
		if b.Keys >= 0 {
			label = fmt.Sprintf("%s[%d:+%d]", b.Name, b.Off, b.Keys)
		}
		n.TraceEvent(trace.Recovery, "resend", fmt.Sprintf("%s for node %d -> node %d", label, d, to))
	}
	if b.Keys != 0 {
		var f diskio.File
		var r *diskio.Reader
		if f, r, err = b.Open(n.FS(), cfg.BlockKeys, w.acct()); err != nil {
			return 0, err
		}
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
	}
	if err := n.SendOwned(to, tag, nil); err != nil {
		return sent, err
	}
	return sent, w.dropBucket(b)
}

// mergeBucket merges this node's bucket own with the in-neighbors'
// streams into the file outName — own-bucket reader and streams into one
// loser tree into one block writer.  With tee set, every stream is also
// written to its hetsort.recv<i> file as it arrives.
func (w *worker) mergeBucket(own diskio.Section, tag int, nbrs []int, outName string, tee bool) (err error) {
	n := w.n
	f, r, err := own.Open(n.FS(), w.cfg.BlockKeys, w.acct())
	if err != nil {
		return err
	}
	srcs := []polyphase.MergeSource{r}
	streams := make([]*cluster.Stream, 0, len(nbrs))
	var tees []*blockFile
	defer func() {
		for _, s := range streams {
			s.Close()
		}
		r.Release()
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
				return err
			}
			tees = append(tees, b)
			s.Tee = b.WriteKeys
		}
	}
	out, err := w.createBlockFile(outName)
	if err != nil {
		return err
	}
	err = polyphase.Merge(srcs, n, out.WriteKeys)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return err
}

// advanceBucket turns this node's round-t bucket for destination d into
// its round-(t+1) bucket, merging in the in-neighbors' streams.  With no
// in-neighbors the bucket advances with no I/O: a section of the sorted
// file stays the section it is, a merged intermediate is renamed.
func (w *worker) advanceBucket(t, tag, d int, nbrs []int) error {
	old, next := w.bucket(t, d), w.bucket(t+1, d)
	if len(nbrs) == 0 {
		if old == next {
			return nil
		}
		return w.n.FS().Rename(old.Name, next.Name)
	}
	if err := w.mergeBucket(old, tag, nbrs, next.Name, false); err != nil {
		return err
	}
	return w.dropBucket(old)
}

// landFinal is the final round at a needy node.  Fused, the own bucket
// and the in-neighbors' streams merge straight into the output file,
// teed to durable receive files when checkpointing so the phase-4
// manifest has its inputs; in the fallback each stream spools to its
// receive file and step 5 merges them with the own bucket, which stays
// on disk either way.
func (w *worker) landFinal(t, tag int, nbrs []int, fused bool) error {
	n := w.n
	if fused {
		mode := "fused"
		if w.cfg.Checkpoint {
			mode = "spill"
		}
		n.TraceEvent(trace.Pipeline, mode, fmt.Sprintf("fan-in:%d msg:%d", len(nbrs)+1, w.cfg.MessageKeys))
		return w.mergeBucket(w.bucket(t, n.ID()), tag, nbrs, w.output, w.cfg.Checkpoint)
	}
	for _, nb := range nbrs {
		if err := w.spool(nb, tag); err != nil {
			return err
		}
	}
	return nil
}

// spool drains peer nb's stream into its receive file.  Keys from one
// peer arrive sorted (every bucket is a slice of a sorted file), so the
// receive file is sorted.
func (w *worker) spool(nb, tag int) error {
	b, err := w.createBlockFile(w.recvName(nb))
	if err != nil {
		return err
	}
	for {
		keys, err := w.n.Recv(nb, tag)
		if err == nil && len(keys) > 0 {
			err = b.WriteKeys(keys)
			w.n.ReleaseBuf(keys)
		}
		if err != nil {
			b.Close()
			return err
		}
		if len(keys) == 0 {
			return b.Close()
		}
	}
}
