package extsort

import (
	"fmt"
	"slices"
	"strings"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/trace"
)

// tagRoundBase tags the redistribution traffic: round t uses
// tagRoundBase + t, so late rounds queue behind earlier ones on a
// shared link (per-link FIFO) without inter-round barriers.
const tagRoundBase = 400

// redistQueueHWMKey formats the metrics key of a node's deepest in-link
// queue after redistribution round t.  Like cluster.FanInHWMKey and
// cluster.LinkQueueHWMKey it follows the host's scheduling: those three
// are the only NodeMetrics keys in which two runs of one sort may differ.
const redistQueueHWMKey = "redist.r%d.queue.hwm"

// roundPrefix prefixes every intermediate bucket file (swept by cleanup).
const roundPrefix = "hetsort.rt"

// bucket is this node's round-t bucket for destination d: one section per
// step-1 run, between its cuts d and d+1, in round 0 — and for as long as
// no round has merged a peer's keys into it (ownRounds) — then the merged
// intermediate of the round before.  Which of the two follows from the
// routing alone, so a resumed node finds the buckets it left.  It lives
// in w.secs, which only grows during a step.
func (w *worker) bucket(t, d int) []diskio.Section {
	lo := len(w.secs)
	if t > w.ownRounds {
		w.secs = append(w.secs, diskio.Section{Name: fmt.Sprintf("%s%d.d%d", roundPrefix, t, d), Keys: -1})
	} else {
		p := w.n.P()
		for r, run := range w.runs {
			c := w.cuts[r*(p+1)+d:]
			w.secs = append(w.secs, diskio.Section{Name: run.Name, Off: run.Off + c[0], Keys: c[1] - c[0]})
		}
	}
	return w.secs[lo:len(w.secs):len(w.secs)]
}

// dropBucket removes a consumed bucket (sent or merged forward) unless it
// is made of step 1's runs, which stay whole until step 5's cleanup so
// that a recovered peer can be sent any bucket again.
func (w *worker) dropBucket(b []diskio.Section) error {
	if !strings.HasPrefix(b[0].Name, roundPrefix) {
		return nil
	}
	if err := w.files.Drop(b[0].Name); err != nil {
		return err
	}
	return w.remove(b[0].Name)
}

// finalInNeighbors returns the peers that stream to this node in the
// final round.
func (w *worker) finalInNeighbors() []int {
	return roundInNeighbors(w.n.ID(), w.lv[len(w.lv)-2], 1, w.n.P())
}

// finalInputs lists the final-merge inputs — the node's own last-round
// bucket as one input, plus one receive file per final-round in-neighbor.
// They follow from the routing alone, so a resumed node that already
// committed phase 4 finds the durable inputs its manifest listed.
func (w *worker) finalInputs() [][]diskio.Section {
	ins := [][]diskio.Section{w.bucket(len(w.lv)-2, w.n.ID())}
	for _, i := range w.finalInNeighbors() {
		w.secs = append(w.secs, diskio.Section{Name: w.recvName(i), Keys: -1})
		ins = append(ins, w.secs[len(w.secs)-1:])
	}
	return ins
}

// fusedFits reports whether a fused final round fed by the given number
// of in-neighbor streams, beside the given number of own runs, fits
// memory: one message buffer and a block per stream, plus a reader's
// block per run and the output writer's.
func (c Config) fusedFits(streams, runs int) bool {
	return (c.MessageKeys+c.BlockKeys)*streams+(runs+1)*c.BlockKeys <= c.MemoryKeys
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
	fused := w.cfg.fusedFits(streams, len(w.runs))
	if !fused && needy[id] {
		n.TraceEvent(trace.Pipeline, "fallback",
			fmt.Sprintf("fan-in %d x %d-key messages exceeds MemoryKeys=%d", streams+1, w.cfg.MessageKeys, w.cfg.MemoryKeys))
	}
	w.merged = fused && !needy[id]
	lv := w.lv
	T := len(lv) - 1
	n.Metrics().Gauge("redist.rounds").Set(float64(T))
	// A flat round's p buckets, a section a run, and its receives fit without growing.
	w.secs, w.srcs = slices.Grow(w.secs, len(w.runs)*(p+1)), slices.Grow(w.srcs, len(w.runs)*(p+1))
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
		n.Metrics().Gauge(fmt.Sprintf(redistQueueHWMKey, t)).Set(float64(n.MaxInQueueHWM()))
		endRound()
	}
	n.Metrics().Gauge("redist.fanin.streams").Set(float64(maxFan))
	return nil
}

// sendBucket streams bucket b, this node's keys for destination d, to
// node `to` in MessageKeys-sized messages, terminated by the zero-length
// sentinel, and returns the key count sent.  Several sections merge into
// the messages; an empty one (most buckets of a small portion at large
// p) reads nothing.  Payloads are pooled buffers whose ownership
// transfers with the message (SendOwned), so redistribution allocates
// nothing steady-state.  On a resumed run a node
// already past phase 4 is re-sending retained data to a peer whose
// in-flight messages died with the crash; that is traced as a "resend"
// recovery event.
func (w *worker) sendBucket(to, tag int, b []diskio.Section, d int) (sent int64, err error) {
	n := w.n
	if w.done() >= 4 {
		label := b[0].Name
		if b[0].Keys >= 0 {
			label = fmt.Sprintf("%s[%d:+%d]", b[0].Name, b[0].Off, b[0].Keys)
		}
		n.TraceEvent(trace.Recovery, "resend", fmt.Sprintf("%s for node %d -> node %d", label, d, to))
	}
	srcs := w.srcs[:0]
	for _, s := range b {
		if s.Keys == 0 {
			continue
		}
		r, err := w.files.Section(s)
		if err != nil {
			return 0, err
		}
		srcs = append(srcs, r)
	}
	w.srcs = srcs
	switch len(srcs) {
	case 0:
	case 1:
		r := srcs[0].(*diskio.Reader)
		for err == nil {
			buf := n.AcquireBuf(w.cfg.MessageKeys)
			var cnt int
			if cnt, err = diskio.ReadChunk(r, buf); err != nil || cnt == 0 {
				n.ReleaseBuf(buf)
				break
			}
			err = n.SendOwned(to, tag, buf[:cnt])
			sent += int64(cnt)
		}
	default: // the runs' sections merge into the messages
		pk := &cluster.Packer{N: n, To: to, Tag: tag, Size: w.cfg.MessageKeys}
		if err = w.merger.Merge(srcs, n, pk.Write); err == nil {
			err = pk.Close()
		}
		sent = pk.Sent
	}
	for _, r := range srcs {
		r.(*diskio.Reader).Idle()
	}
	if err != nil {
		return sent, err
	}
	if err := n.SendOwned(to, tag, nil); err != nil {
		return sent, err
	}
	return sent, w.dropBucket(b)
}

// mergeBucket merges this node's bucket own — one reader per section —
// with the in-neighbors' streams into the file outName: one loser tree
// into one block writer.  Beside streams, several sections (step 1's
// runs) are one leaf of that tree, w.own: a tree of their own.
func (w *worker) mergeBucket(own []diskio.Section, tag int, nbrs []int, outName string) (err error) {
	n := w.n
	srcs := w.srcs[:0]
	defer func() {
		for _, s := range srcs {
			if r, ok := s.(*diskio.Reader); ok {
				r.Idle()
			} else if st, ok := s.(*cluster.Stream); ok {
				st.Close()
			}
		}
	}()
	for _, s := range own {
		r, err := w.files.Section(s)
		if err != nil {
			return err
		}
		srcs = append(srcs, r)
	}
	leaves := 0 // where the tree's leaves start in srcs
	if len(own) > 1 && len(nbrs) > 0 {
		if err := w.own.Reset(srcs, n); err != nil {
			return err
		}
		leaves, srcs = len(srcs), append(srcs, &w.own)
	}
	for _, nb := range nbrs {
		srcs = append(srcs, n.OpenStream(nb, tag))
	}
	w.srcs = srcs
	out, err := w.createBlockFile(outName)
	if err != nil {
		return err
	}
	err = w.merger.Merge(srcs[leaves:], n, out.WriteKeys)
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
		if slices.Equal(old, next) {
			return nil
		}
		return w.n.FS().Rename(old[0].Name, next[0].Name)
	}
	if err := w.mergeBucket(old, tag, nbrs, next[0].Name); err != nil {
		return err
	}
	return w.dropBucket(old)
}

// landFinal is the final round at a needy node.  Fused, the own bucket
// and the in-neighbors' streams merge straight into the output file,
// which the phase-4 manifest lists; in the fallback each stream spools to
// its receive file and step 5 merges them with the own bucket, which
// stays on disk either way.
func (w *worker) landFinal(t, tag int, nbrs []int, fused bool) error {
	n := w.n
	if fused {
		n.TraceEvent(trace.Pipeline, "fused", fmt.Sprintf("fan-in:%d msg:%d", len(nbrs)+1, w.cfg.MessageKeys))
		return w.mergeBucket(w.bucket(t, n.ID()), tag, nbrs, w.output)
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
