// Package dewitt implements the baseline the paper's section 2 singles
// out as "the closest algorithm in spirit to parallel sampling
// techniques ... for the D disk model": the randomized two-step
// distribution sort of DeWitt, Naughton and Schneider (PDIS 1991),
// parallel sorting on a shared-nothing architecture using probabilistic
// splitting.
//
//  1. Each node draws a random sample of its *unsorted* disk-resident
//     portion; a designated node sorts the gathered sample and selects
//     p-1 splitters (probabilistic splitting), here at the cumulative
//     perf quantiles so the comparison against Algorithm 1 is fair on
//     heterogeneous clusters.
//  2. Each node streams its portion once, routing every key to its
//     bucket node; receivers accumulate memory-loads, sort each load
//     in core and write it out as a small sorted run.
//  3. Each node merge-sorts its runs externally.
//
// Compared with the paper's Algorithm 1 this saves the up-front full
// external sort (one read+write pass less over the data) but pays with
// random-sample splitters: the load balance depends on the sample
// rather than on regular positions in sorted portions.
package dewitt

import (
	"fmt"
	"sort"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/sampling"
)

// Message tags.
const (
	tagSample = 400 + iota
	tagSplitters
	tagData
	tagBarrier
)

// Config parameterises the baseline.  It runs on Algorithm 1's machine:
// the perf vector (all ones = the original homogeneous algorithm), B, M,
// T, the message size (the routing batch per destination) and the seed
// of the samplers come from the embedded extsort.Config, whose pivot,
// topology and checkpoint fields the baseline ignores.
type Config struct {
	extsort.Config
	// SampleFactor scales the per-node sample: node i draws
	// SampleFactor*p*perf[i] random keys (default 32, the "sufficient
	// number of random pivots" knob of the probabilistic splitting).
	SampleFactor int
}

func (c *Config) applyDefaults(p int) {
	c.ApplyDefaults(p)
	if c.SampleFactor <= 0 {
		c.SampleFactor = 32
	}
}

// Sort runs the two-step distribution sort.  Every node must hold its
// unsorted portion in inputName on its private FS; on success every
// node holds its sorted bucket in outputName (concatenation in rank
// order is globally sorted).  The report has no per-step breakdown;
// its Pivots are the splitters.
func Sort(c *cluster.Cluster, cfg Config, inputName, outputName string) (*extsort.Report, error) {
	p := c.P()
	cfg.applyDefaults(p)
	if err := cfg.Perf.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Perf) != p {
		return nil, fmt.Errorf("dewitt: perf length %d != cluster size %d", len(cfg.Perf), p)
	}
	splitOut := make([][]record.Key, p)
	err := c.Run(func(n *cluster.Node) error {
		s, err := nodeMain(n, cfg, inputName, outputName)
		splitOut[n.ID()] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	res, err := extsort.Collect(c, cfg.Perf, outputName)
	if err != nil {
		return nil, err
	}
	res.Pivots = splitOut[0]
	return res, nil
}

// Algo is the baseline as extsort.Machine.Run's algo: it sorts the
// staged "input" files into "output", node i drawing
// sampleFactor·p·perf[i] random keys (0 = the default).
func Algo(sampleFactor int) func(*cluster.Cluster, extsort.Config) (*extsort.Report, error) {
	return func(c *cluster.Cluster, cfg extsort.Config) (*extsort.Report, error) {
		return Sort(c, Config{Config: cfg, SampleFactor: sampleFactor}, "input", "output")
	}
}

func nodeMain(n *cluster.Node, cfg Config, inputName, outputName string) ([]record.Key, error) {
	p, id := n.P(), n.ID()

	// Step 1: probabilistic splitting from random samples.
	li, err := diskio.CountKeys(n.FS(), inputName)
	if err != nil {
		return nil, err
	}
	count := cfg.SampleFactor * p * cfg.Perf[id]
	var samples []record.Key
	if li > 0 && p > 1 {
		f, err := n.FS().Open(inputName)
		if err != nil {
			return nil, err
		}
		for _, idx := range sampling.RandomSampleIndices(li, count, cfg.Seed+int64(id)*977) {
			k, rerr := diskio.ReadKeyAt(f, idx, n.Acct())
			if rerr != nil {
				f.Close()
				return nil, rerr
			}
			samples = append(samples, k)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	gathered, err := n.Gather(0, tagSample, samples)
	if err != nil {
		return nil, err
	}
	var splitters []record.Key
	if id == 0 {
		var cands []record.Key
		for _, g := range gathered {
			cands = append(cands, g...)
		}
		n.ChargeCompute(int64(len(cands)) * 16)
		splitters, err = sampling.SelectPivotsWeighted(cands, cfg.Perf)
		if err != nil {
			return nil, err
		}
	}
	splitters, err = n.Bcast(0, tagSplitters, splitters)
	if err != nil {
		return nil, err
	}

	// Step 2a: route every key to its bucket in batched messages.
	if err := distribute(n, cfg, inputName, splitters); err != nil {
		return nil, err
	}
	// Step 2b: receive and write small sorted runs.
	runs, err := receiveRuns(n, cfg)
	if err != nil {
		return nil, err
	}
	// Step 3: external merge of the runs.
	pcfg := polyphase.Config{
		FS:         n.FS(),
		BlockKeys:  cfg.BlockKeys,
		MemoryKeys: cfg.MemoryKeys,
		Tapes:      cfg.Tapes,
		Acct:       n.Acct(),
		TempPrefix: "dewitt.m.",
	}
	if err := polyphase.MergeFiles(pcfg, runs, outputName); err != nil {
		return nil, err
	}
	for _, r := range runs {
		if err := n.FS().Remove(r); err != nil {
			return nil, err
		}
	}
	return splitters, nil
}

// distribute streams the input once, batching keys per destination.
func distribute(n *cluster.Node, cfg Config, inputName string, splitters []record.Key) error {
	p := n.P()
	f, err := n.FS().Open(inputName)
	if err != nil {
		return err
	}
	defer f.Close()
	r := diskio.NewReader(f, cfg.BlockKeys, n.Acct())
	out := make([][]record.Key, p)
	for i := range out {
		out[i] = make([]record.Key, 0, cfg.MessageKeys)
	}
	buf := make([]record.Key, cfg.BlockKeys)
	for {
		cnt, err := diskio.ReadChunk(r, buf)
		if err != nil {
			return err
		}
		if cnt == 0 {
			break
		}
		for _, k := range buf[:cnt] {
			dst := sort.Search(len(splitters), func(j int) bool { return splitters[j] >= k })
			out[dst] = append(out[dst], k)
			if len(out[dst]) == cfg.MessageKeys {
				if err := n.Send(dst, tagData, out[dst]); err != nil {
					return err
				}
				out[dst] = out[dst][:0]
			}
		}
		n.ChargeCompute(int64(cnt) * 3) // binary search per key
	}
	for dst := 0; dst < p; dst++ {
		if len(out[dst]) > 0 {
			if err := n.Send(dst, tagData, out[dst]); err != nil {
				return err
			}
		}
		if err := n.Send(dst, tagData, nil); err != nil { // end of stream
			return err
		}
	}
	return nil
}

// receiveRuns drains every peer, accumulating memory loads, sorting
// each in core and writing it as a run file.
func receiveRuns(n *cluster.Node, cfg Config) ([]string, error) {
	load := make([]record.Key, 0, cfg.MemoryKeys)
	scratch := make([]record.Key, cfg.MemoryKeys)
	var runs []string
	flush := func() error {
		if len(load) == 0 {
			return nil
		}
		record.SortKeys(load, scratch)
		n.ChargeCompute(polyphase.NLogN(int64(len(load))))
		name := fmt.Sprintf("dewitt.run%d", len(runs))
		if err := diskio.WriteFile(n.FS(), name, load, cfg.BlockKeys, n.Acct()); err != nil {
			return err
		}
		runs = append(runs, name)
		load = load[:0]
		return nil
	}
	for from := 0; from < n.P(); from++ {
		for {
			keys, err := n.Recv(from, tagData)
			if err != nil {
				return nil, err
			}
			if len(keys) == 0 {
				break
			}
			for len(keys) > 0 {
				room := cfg.MemoryKeys - len(load)
				take := len(keys)
				if take > room {
					take = room
				}
				load = append(load, keys[:take]...)
				keys = keys[take:]
				if len(load) == cfg.MemoryKeys {
					if err := flush(); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return runs, nil
}
