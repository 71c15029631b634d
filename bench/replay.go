package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"hetsort"
	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/pdm"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
	"hetsort/internal/vtime"
)

// replay runs each layer under the facade on its own, through exported
// functions only, on the workload's own keys, shares, filesystem kind
// and B/M/T/message parameters, one span per layer.  twin is the Report
// of the traced facade call, whose partition sizes fix the segment
// sizes.  It fills m with the per-layer metrics the spans give.
type replay struct {
	in     *inputs
	tr     *tracer
	twin   *hetsort.Report
	m      map[string]float64
	ext    extsort.Config
	fs     diskio.FS // one disk for the single-node layers
	shares []int64
	offs   []int64   // offs[i] is where node i's portion starts in keys
	segs   [][]int64 // segs[i][j] keys travel from node i to node j
	sorted []record.Key
	// roundTrip is the MB/s at which diskio writes and reads back the
	// same bytes: the roofline of a sorter, which must do both.
	roundTrip float64
}

func newReplay(in *inputs, tr *tracer, twin *hetsort.Report, m map[string]float64) (*replay, error) {
	r := &replay{in: in, tr: tr, twin: twin, m: m}
	r.ext = in.w.extConfig(in.sum)
	r.ext.ApplyDefaults(len(in.w.perf))
	r.fs = diskio.NewMemFS()
	if in.w.dirFS {
		fs, err := diskio.NewDirFS(filepath.Join(in.dir, "replay"))
		if err != nil {
			return nil, err
		}
		r.fs = fs
	}
	p := len(in.w.perf)
	r.shares = in.w.vector().Shares(in.n)
	r.offs = make([]int64, p+1)
	for i, s := range r.shares {
		r.offs[i+1] = r.offs[i] + s
	}
	// Node i's keys are an independent draw of the same distribution, so
	// its segment for node j is its share of node j's final partition.
	biggest := 0
	for j, ps := range twin.PartitionSizes {
		if ps > twin.PartitionSizes[biggest] {
			biggest = j
		}
	}
	r.segs = make([][]int64, p)
	for i := range r.segs {
		r.segs[i] = make([]int64, p)
		left := r.shares[i]
		for j, ps := range twin.PartitionSizes {
			r.segs[i][j] = int64(float64(r.shares[i]) * float64(ps) / float64(in.n))
			left -= r.segs[i][j]
		}
		r.segs[i][biggest] += left
	}
	return r, nil
}

func (r *replay) portion(keys []record.Key, i int) []record.Key {
	return keys[r.offs[i]:r.offs[i+1]]
}

func (r *replay) polyCfg(prefix string, ctr *pdm.Counter) polyphase.Config {
	return polyphase.Config{
		FS: r.fs, BlockKeys: r.ext.BlockKeys, MemoryKeys: r.ext.MemoryKeys, Tapes: r.ext.Tapes,
		RunFormation: r.ext.RunFormation, Acct: diskio.Accounting{Counter: ctr},
		Overlap: diskio.Overlap{Enabled: r.ext.Overlap}, TempPrefix: prefix,
	}
}

// run replays the layers bottom-up and stops at the first that fails.
func (r *replay) run() error {
	return r.tr.run("replay", 0, func() error {
		for _, layer := range []func() error{r.calib, r.disk, r.polyphase, r.mergeKernel, r.exchange, r.collective, r.extsort} {
			if err := layer(); err != nil {
				return err
			}
		}
		return nil
	}).Err
}

// calib measures the two machine normalisers in the same run: a memory
// copy of the keys, and the in-core baseline, slices.Sort of each
// node's portion on one thread.
func (r *replay) calib() error {
	n := r.in.n
	r.sorted = make([]record.Key, n)
	const passes = 4
	cp := r.tr.run("calib.copy", passes*n, func() error {
		for i := 0; i < passes; i++ {
			copy(r.sorted, r.in.keys)
		}
		return nil
	})
	r.m["calib.copy_mbps"] = cp.mbps()
	st := r.tr.run("calib.incore_sort", n, func() error {
		for i := range r.shares {
			slices.Sort(r.portion(r.sorted, i))
		}
		return nil
	})
	r.m["calib.incore_sort_mbps"] = st.mbps()
	return nil
}

// disk writes every node's portion as the facade's staging does, reads
// it back block by block, and probes it at the regular-sample positions
// of step 2.
func (r *replay) disk() error {
	n, b := r.in.n, r.ext.BlockKeys
	p := len(r.shares)
	wr := r.tr.run("diskio.write", n, func() error {
		for i := range r.shares {
			if err := diskio.WriteFile(r.fs, inputName(i), r.portion(r.in.keys, i), b, diskio.Accounting{}); err != nil {
				return err
			}
		}
		return nil
	})
	buf := make([]record.Key, b)
	rd := r.tr.run("diskio.read", n, func() error {
		for i, want := range r.shares {
			got, err := readThrough(r.fs, inputName(i), b, buf)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("%s: read %d keys, wrote %d", inputName(i), got, want)
			}
		}
		return nil
	})
	if err := errors.Join(wr.Err, rd.Err); err != nil {
		return err
	}
	copyMBps := r.m["calib.copy_mbps"]
	r.m["diskio.write.mbps"] = wr.mbps()
	r.m["diskio.write.alloc_bytes_per_key"] = wr.perKey(float64(wr.AllocBytes))
	r.m["diskio.write.roofline"] = ratio(wr.mbps(), copyMBps)
	r.m["diskio.read.mbps"] = rd.mbps()
	r.m["diskio.read.alloc_bytes_per_key"] = rd.perKey(float64(rd.AllocBytes))
	r.m["diskio.read.roofline"] = ratio(rd.mbps(), copyMBps)
	r.roundTrip = ratio(4*float64(n)/1e6, wr.seconds()+rd.seconds())

	// Too few probes for a clock at p = 4, so the set is repeated.
	const minOps = 20000
	var ops int64
	at := r.tr.run("diskio.readat", 0, func() error {
		files := make([]diskio.File, p)
		probes := make([][]int64, p)
		for i := range files {
			f, err := r.fs.Open(inputName(i))
			if err != nil {
				return err
			}
			defer f.Close()
			files[i] = f
			spacing, err := r.spacing(i)
			if err != nil {
				return err
			}
			probes[i] = sampling.RegularSampleIndices(r.shares[i], spacing)
		}
		for ops < minOps {
			for i, f := range files {
				for _, idx := range probes[i] {
					if _, err := diskio.ReadKeyAt(f, idx, diskio.Accounting{}); err != nil {
						return err
					}
				}
				ops += int64(len(probes[i]))
			}
		}
		return nil
	})
	r.m["diskio.readat.ns_per_op"] = ratio(at.seconds()*1e9, float64(ops))
	return at.Err
}

func inputName(i int) string  { return fmt.Sprintf("input.%d", i) }
func sortedName(i int) string { return fmt.Sprintf("sorted.%d", i) }
func segName(i, j int) string { return fmt.Sprintf("seg.%d.%d", i, j) }

// readThrough reads a whole file through the block reader and returns
// the number of keys it held.
func readThrough(fs diskio.FS, name string, blockKeys int, buf []record.Key) (int64, error) {
	f, err := fs.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd := diskio.NewReader(f, blockKeys, diskio.Accounting{})
	defer rd.Release()
	var total int64
	for {
		n, err := rd.ReadKeys(buf)
		total += int64(n)
		if err == io.EOF || (err == nil && n == 0) {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// polyphase sorts each node's portion one after another (the protocol
// of the paper's Table 2), cuts the sorted files into the workload's
// segments, and merges each node's p segments as step 5 does.
func (r *replay) polyphase() error {
	n := r.in.n
	p := len(r.shares)
	var ctr pdm.Counter
	var runs, phases int64
	st := r.tr.run("polyphase.sort", n, func() error {
		for i := range r.shares {
			stats, err := polyphase.Sort(r.polyCfg(fmt.Sprintf("pp%d.", i), &ctr), inputName(i), sortedName(i))
			if err != nil {
				return err
			}
			if stats.Keys != r.shares[i] {
				return fmt.Errorf("node %d: sorted %d of %d keys", i, stats.Keys, r.shares[i])
			}
			runs += stats.Runs
			phases += stats.Phases
		}
		return nil
	})
	if st.Err != nil {
		return st.Err
	}
	st.Blocks = ctr.Total()
	r.m["polyphase.sort.mbps"] = st.mbps()
	r.m["polyphase.sort.alloc_bytes_per_key"] = st.perKey(float64(st.AllocBytes))
	r.m["polyphase.sort.mallocs_per_key"] = st.perKey(float64(st.Mallocs))
	r.m["polyphase.sort.runs"] = float64(runs)
	r.m["polyphase.sort.phases"] = float64(phases)
	r.m["polyphase.sort.block_ios"] = float64(st.Blocks)
	r.m["polyphase.sort.roofline"] = ratio(st.mbps(), r.roundTrip)

	cut := r.tr.run("replay.partition", n, func() error {
		for i := range r.shares {
			r.fs.Remove(inputName(i))
			if err := r.cut(i); err != nil {
				return err
			}
			r.fs.Remove(sortedName(i))
		}
		return nil
	})
	if cut.Err != nil {
		return cut.Err
	}

	var mctr pdm.Counter
	mf := r.tr.run("polyphase.mergefiles", n, func() error {
		names := make([]string, p)
		for j := 0; j < p; j++ {
			for i := range names {
				names[i] = segName(i, j)
			}
			if err := polyphase.MergeFiles(r.polyCfg(fmt.Sprintf("mf%d.", j), &mctr), names, "merged"); err != nil {
				return err
			}
			got, err := diskio.CountKeys(r.fs, "merged")
			if err != nil {
				return err
			}
			var want int64
			for i := range r.segs {
				want += r.segs[i][j]
			}
			if got != want {
				return fmt.Errorf("node %d: merged %d of %d keys", j, got, want)
			}
		}
		return nil
	})
	if mf.Err != nil {
		return mf.Err
	}
	mf.Blocks = mctr.Total()
	r.m["polyphase.mergefiles.mbps"] = mf.mbps()
	r.m["polyphase.mergefiles.mallocs_per_key"] = mf.perKey(float64(mf.Mallocs))
	r.m["polyphase.mergefiles.block_ios"] = float64(mf.Blocks)
	r.m["polyphase.mergefiles.roofline"] = ratio(mf.mbps(), r.roundTrip)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			r.fs.Remove(segName(i, j))
		}
	}
	r.fs.Remove("merged")
	return nil
}

// cut copies node i's sorted file into its p segment files.
func (r *replay) cut(i int) error {
	b := r.ext.BlockKeys
	f, err := r.fs.Open(sortedName(i))
	if err != nil {
		return err
	}
	defer f.Close()
	rd := diskio.NewReader(f, b, diskio.Accounting{})
	defer rd.Release()
	buf := make([]record.Key, b)
	for j, size := range r.segs[i] {
		out, err := r.fs.Create(segName(i, j))
		if err != nil {
			return err
		}
		w := diskio.NewWriter(out, b, diskio.Accounting{})
		for left := size; left > 0; {
			n, err := rd.ReadKeys(buf[:min(int64(b), left)])
			if n == 0 {
				out.Close()
				return fmt.Errorf("%s ended %d keys early: %v", sortedName(i), left, err)
			}
			if err := w.WriteKeys(buf[:n]); err != nil {
				out.Close()
				return err
			}
			left -= int64(n)
		}
		if err := w.Close(); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	return nil
}

// sliceSource feeds the merge kernel a sorted in-memory portion one
// block at a time, as a block reader would.
type sliceSource struct {
	keys  []record.Key
	block int
	cur   []record.Key
}

func (s *sliceSource) Buffered() []record.Key { return s.cur }
func (s *sliceSource) Discard(n int)          { s.cur = s.cur[n:] }
func (s *sliceSource) Fill() error {
	if len(s.keys) == 0 {
		return io.EOF
	}
	n := min(s.block, len(s.keys))
	s.cur, s.keys = s.keys[:n], s.keys[n:]
	return nil
}

// mergeKernel runs the loser tree alone: p sorted in-memory sources and
// an emit that discards, so no disk or codec time is in it.
func (r *replay) mergeKernel() error {
	srcs := make([]polyphase.MergeSource, len(r.shares))
	for i := range srcs {
		srcs[i] = &sliceSource{keys: r.portion(r.sorted, i), block: r.ext.BlockKeys}
	}
	var emitted int64
	mk := r.tr.run("polyphase.merge_kernel", r.in.n, func() error {
		err := polyphase.Merge(srcs, vtime.Nop{}, func(chunk []record.Key) error {
			emitted += int64(len(chunk))
			return nil
		})
		if err == nil && emitted != r.in.n {
			err = fmt.Errorf("emitted %d of %d keys", emitted, r.in.n)
		}
		return err
	})
	r.m["polyphase.merge_kernel.ns_per_key"] = mk.perKey(mk.seconds() * 1e9)
	r.m["polyphase.merge_kernel.mallocs_per_key"] = mk.perKey(float64(mk.Mallocs))
	return mk.Err
}

func (r *replay) newCluster(disks func(int) diskio.FS) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Slowdowns: r.in.w.vector().Slowdowns(),
		Net:       cluster.FastEthernet(),
		BlockKeys: r.ext.BlockKeys,
		Disks:     disks,
	})
}

// spacing is the distance between node i's regular samples in step 2.
func (r *replay) spacing(i int) (int64, error) {
	s, _, err := sampling.HeteroSpacing(i, r.shares[i], r.in.w.perf[i], len(r.shares))
	return s, err
}

// exchange moves the workload's segments all-to-all in MessageKeys
// messages: every node sends all it has, then receives all it is due.
func (r *replay) exchange() error {
	msg := int64(r.ext.MessageKeys)
	c, err := r.newCluster(nil)
	if err != nil {
		return err
	}
	var maxSeg, msgs int64
	for i := range r.segs {
		for _, s := range r.segs[i] {
			maxSeg = max(maxSeg, s)
			msgs += (s + msg - 1) / msg
		}
	}
	c.EnsureLinkCapacity(cluster.LinkBound(maxSeg, r.ext.MessageKeys))
	ex := r.tr.run("cluster.exchange", r.in.n, func() error {
		return c.Run(func(nd *cluster.Node) error {
			i := nd.ID()
			rest := r.portion(r.in.keys, i)
			for j, s := range r.segs[i] {
				seg := rest[:s]
				rest = rest[s:]
				for len(seg) > 0 {
					k := min(msg, int64(len(seg)))
					if err := nd.Send(j, 1, seg[:k]); err != nil {
						return err
					}
					seg = seg[k:]
				}
			}
			for from := range r.segs {
				for left := r.segs[from][i]; left > 0; {
					got, err := nd.Recv(from, 1)
					if err != nil {
						return err
					}
					left -= int64(len(got))
				}
			}
			return nil
		})
	})
	r.m["cluster.exchange.mbps"] = ex.mbps()
	r.m["cluster.exchange.mallocs_per_msg"] = ratio(float64(ex.Mallocs), float64(msgs))
	return ex.Err
}

// collective runs step 2's round trip on sample-sized payloads: every
// node's regular samples of its sorted portion up and p-1 pivots back,
// over a star for the flat topology and the radix-r tree otherwise.
func (r *replay) collective() error {
	p := len(r.shares)
	c, err := r.newCluster(nil)
	if err != nil {
		return err
	}
	samples := make([][]record.Key, p)
	for i := range samples {
		spacing, err := r.spacing(i)
		if err != nil {
			return err
		}
		samples[i] = sampling.RegularSamples(r.portion(r.sorted, i), spacing)
	}
	combine := func(acc, child []record.Key) ([]record.Key, error) {
		return sampling.CombineSorted(acc, child), nil
	}
	round := func(nd *cluster.Node, up, down int) error {
		mine := samples[nd.ID()]
		if r.ext.Topology != extsort.TopologyFlat {
			all, err := nd.TreeReduce(r.ext.Radix, up, mine, combine)
			if err != nil {
				return err
			}
			if nd.ID() == 0 {
				all = all[:p-1]
			}
			_, err = nd.TreeBcast(r.ext.Radix, down, all)
			return err
		}
		parts, err := nd.Gather(0, up, mine)
		if err != nil {
			return err
		}
		var pivots []record.Key
		if nd.ID() == 0 {
			pivots = parts[p-1][:p-1]
		}
		_, err = nd.Bcast(0, down, pivots)
		return err
	}
	const rounds = 64
	co := r.tr.run("cluster.collective", 0, func() error {
		return c.Run(func(nd *cluster.Node) error {
			for i := 0; i < rounds; i++ {
				if err := round(nd, 2*i, 2*i+1); err != nil {
					return err
				}
			}
			return nil
		})
	})
	r.m["cluster.collective.us_per_round"] = co.seconds() * 1e6 / rounds
	return co.Err
}

// extsort runs Algorithm 1 below the facade on a machine built the way
// the facade builds it; the facade's staging, read-back and reporting
// are what is missing.  Its model numbers must equal the twin's.
func (r *replay) extsort() error {
	in := r.in
	var disks func(int) diskio.FS
	if in.w.dirFS {
		root := filepath.Join(in.dir, "replay.ext")
		defer os.RemoveAll(root)
		dirs := make([]diskio.FS, len(r.shares))
		for i := range dirs {
			fs, err := diskio.NewDirFS(filepath.Join(root, fmt.Sprintf("node%d", i)))
			if err != nil {
				return err
			}
			dirs[i] = fs
		}
		disks = func(id int) diskio.FS { return dirs[id] }
	}
	c, err := r.newCluster(disks)
	if err != nil {
		return err
	}
	if _, err := extsort.DistributeInput(c, in.w.vector(), in.w.dist, in.n, in.seed, r.ext.BlockKeys, "input"); err != nil {
		return err
	}
	twinIOs := r.twin.ReadBlocks + r.twin.WriteBlocks
	es := r.tr.run("extsort.sort", in.n, func() error {
		res, err := extsort.Sort(c, r.ext, "input", "output")
		if err != nil {
			return err
		}
		if ios := totalIO(res.NodeIO); res.Time != r.twin.Time || ios != twinIOs {
			return fmt.Errorf("replay gave vsec %v and %d block I/Os, the facade %v and %d",
				res.Time, ios, r.twin.Time, twinIOs)
		}
		return nil
	})
	if es.Err != nil {
		return es.Err
	}
	es.Blocks = twinIOs
	r.m["extsort.sort.mbps"] = es.mbps()
	r.m["extsort.sort.alloc_bytes_per_key"] = es.perKey(float64(es.AllocBytes))
	r.m["extsort.sort.mallocs_per_key"] = es.perKey(float64(es.Mallocs))
	r.m["extsort.sort.roofline"] = ratio(es.mbps(), r.m["polyphase.sort.mbps"])
	r.m["cluster.links_created"] = float64(c.LinksCreated())
	vf := r.tr.run("extsort.verify", in.n, func() error {
		return extsort.VerifyOutput(c, "output", r.ext.BlockKeys, in.sum)
	})
	r.m["extsort.verify.mbps"] = vf.mbps()
	return vf.Err
}

func totalIO(nodes []pdm.IOStats) int64 {
	var t int64
	for _, io := range nodes {
		t += io.Total()
	}
	return t
}

// reportMetrics are the per-layer numbers the facade's own Report
// carries: the model's steps and attribution, and the counters the
// nodes keep.  They are the traced twin's, so they describe the timed
// call itself, not a replay.
func reportMetrics(m map[string]float64, rep *hetsort.Report) {
	for s := 0; s < 5; s++ {
		m[fmt.Sprintf("extsort.step%d.vsec", s+1)] = rep.StepTimes[s]
		m[fmt.Sprintf("extsort.step%d.block_ios", s+1)] = float64(totalIO(rep.StepIO[s]))
	}
	var attr hetsort.TimeBreakdown
	for _, b := range rep.NodeBreakdown {
		attr.Compute += b.Compute
		attr.Disk += b.Disk
		attr.Network += b.Network
		attr.Idle += b.Idle
		attr.Overlapped += b.Overlapped
	}
	m["extsort.attr.compute_share"] = ratio(attr.Compute, attr.Total())
	m["extsort.attr.disk_share"] = ratio(attr.Disk, attr.Total())
	m["extsort.attr.network_share"] = ratio(attr.Network, attr.Total())
	m["extsort.attr.idle_share"] = ratio(attr.Idle, attr.Total())
	m["extsort.attr.overlapped_share"] = ratio(attr.Overlapped, attr.Total())
	m["extsort.pivot.rounds"] = float64(rep.PivotRounds)
	m["extsort.pivot.sample_keys"] = float64(rep.PivotSampleKeys)

	sum := func(name string) float64 {
		var t float64
		for _, nm := range rep.NodeMetrics {
			t += nm[name]
		}
		return t
	}
	most := func(name string) float64 {
		var t float64
		for _, nm := range rep.NodeMetrics {
			t = max(t, nm[name])
		}
		return t
	}
	// The flat exchange is one round and sets no gauge for it.
	m["extsort.redist.rounds"] = max(1, most("redist.rounds"))
	m["extsort.redist.fanin_streams"] = most("redist.fanin.streams")
	m["cluster.net.sent_msgs"] = sum("net.sent.msgs")
	m["cluster.net.sent_keys"] = sum("net.sent.keys")
	m["cluster.net.queue_hwm"] = most("net.link.queue.hwm")
	m["diskio.prefetch.hit_rate"] = ratio(sum("disk.prefetch.hits"), sum("disk.prefetch.hits")+sum("disk.prefetch.stalls"))
	m["polyphase.merge.fastpath_rate"] = ratio(sum("merge.fastpath.chunks"), sum("merge.chunks"))
	m["polyphase.merge.comparisons_per_key"] = ratio(sum("merge.comparisons"), sum("merge.keys"))
	m["checkpoint.commit.vsec_mean"] = ratio(sum("checkpoint.commit.vsec.sum"), sum("checkpoint.commit.vsec.count"))
}
