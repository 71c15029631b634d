package check

import (
	"fmt"
	"io"
	"math/rand"

	"hetsort"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

// Options parameterises a sweep.
type Options struct {
	// Seeds is the number of randomized cases beyond the deterministic
	// corner list (default 32; -quick uses 8).
	Seeds int
	// BaseSeed offsets the seed sequence, so a nightly run with a
	// date-derived base explores fresh territory while staying
	// reproducible from its printed seeds.
	BaseSeed int64
	// Quick trims the sweep for PR gates: fewer seeds, smaller inputs,
	// crash/resume only on a subset of cases.
	Quick bool
	// Invariants filters the registry (comma-separated substrings;
	// empty = all).
	Invariants string
	// Scratch enables the crash/resume equivalence variant (a
	// directory for durable node disks; empty skips that variant).
	Scratch string
	// MaxShrinkRuns bounds the shrinker's re-executions per failure.
	MaxShrinkRuns int
	// Progress, when non-nil, receives one line per case.
	Progress io.Writer
}

// Summary reports one sweep.
type Summary struct {
	Cases     int       `json:"cases"`
	Runs      int       `json:"runs"`
	Seeds     []int64   `json:"seeds"`
	Failures  []Failure `json:"-"`
	FailCount int       `json:"failures"`
	// FailureText carries the rendered failures (message + shrunk
	// repro) for the JSON summary.
	FailureText []string `json:"failure_text,omitempty"`
}

// Sweep runs the deterministic corner cases plus opts.Seeds randomized
// cases, checks every invariant on each, and shrinks any failure to a
// minimal repro.  The error return is reserved for harness breakage;
// invariant violations are reported in the summary.
func Sweep(opts Options) *Summary {
	if opts.Seeds <= 0 {
		if opts.Quick {
			opts.Seeds = 8
		} else {
			opts.Seeds = 32
		}
	}
	sum := &Summary{}
	cases := CornerCases(opts.Quick)
	for i := 0; i < opts.Seeds; i++ {
		seed := opts.BaseSeed + int64(i)
		cases = append(cases, GenerateCase(seed, opts.Quick))
		sum.Seeds = append(sum.Seeds, seed)
	}
	// With neither equivalence nor error selected, Check skips the
	// variant runs; mirror that in the run accounting.
	invs := Select(opts.Invariants)
	variants := selected(invs, "equivalence") || selected(invs, "error") || selected(invs, "disk")
	for i, c := range cases {
		ro := RunOptions{Scratch: opts.Scratch, QuickTopology: opts.Quick}
		if opts.Quick && i%4 != 0 {
			// Quick mode: the durable crash/resume variant only on
			// every fourth case — it is the slowest axis (real disks,
			// two runs).
			ro.Scratch = ""
		}
		fails := Check(c, ro, opts.Invariants)
		sum.Cases++
		if variants {
			sum.Runs += runsPerCase(c, ro)
		} else {
			sum.Runs++
		}
		for _, f := range fails {
			shrunk := Shrink(f.Case, f.Invariant, RunOptions{Scratch: ro.Scratch}, opts.MaxShrinkRuns)
			// Re-derive the (possibly sharper) error from the shrunk case.
			err := f.Err
			if re := Check(shrunk, RunOptions{Scratch: ro.Scratch}, f.Invariant); len(re) > 0 {
				err = re[0].Err
			}
			f.Case = shrunk
			f.Err = err
			f.Repro = Repro(shrunk, f.Invariant, err)
			sum.Failures = append(sum.Failures, f)
		}
		if opts.Progress != nil {
			status := "ok"
			if len(fails) > 0 {
				status = fmt.Sprintf("FAIL (%d invariant(s))", len(fails))
			}
			fmt.Fprintf(opts.Progress, "%-44s n=%-7d %s\n", c.Name, len(c.Keys), status)
		}
	}
	sum.FailCount = len(sum.Failures)
	for _, f := range sum.Failures {
		sum.FailureText = append(sum.FailureText, f.String()+"\n"+f.Repro)
	}
	return sum
}

// runsPerCase predicts how many runs Execute performs for accounting.
func runsPerCase(c *Case, ro RunOptions) int {
	if c.Config.Algorithm != "" && c.Config.Algorithm != hetsort.AlgorithmExternalPSRS {
		return 1
	}
	runs := 4 // base + unfused + overlap + cross-D disks
	if flatTopology(c.Config) {
		runs += 4 // tree/r2 + grid + tree/r4 + tree/r16
		if ro.QuickTopology {
			runs -= 2
		}
	} else {
		runs++ // the flat reference run
	}
	if !c.Config.Checkpoint.Enabled {
		runs++
	}
	if ro.Scratch != "" {
		runs += 2 // crash run + resume
	}
	return runs
}

// smallMachine is the harness's default machine: small blocks and
// memory so even a few thousand keys are genuinely out of core and
// every Algorithm-1 step moves real blocks.
func smallMachine(cfg *hetsort.Config) {
	cfg.BlockKeys = 16
	cfg.MemoryKeys = 512
	cfg.Tapes = 4
	cfg.MessageKeys = 64
}

// CornerCases returns the deterministic always-run list: the degenerate
// sizes and adversarial distributions every sweep must cover (n=0, n=1,
// n<p, n not a multiple of lcm(perf), all-equal keys, pre-sorted,
// reverse-sorted), crossed with the pivot strategies at a fixed small
// machine.
func CornerCases(quick bool) []*Case {
	var cases []*Case
	add := func(name string, keys []hetsort.Key, mutate func(*hetsort.Config)) {
		cfg := hetsort.Config{}
		smallMachine(&cfg)
		if mutate != nil {
			mutate(&cfg)
		}
		cases = append(cases, &Case{Name: "corner/" + name, Keys: keys, Config: cfg})
	}

	allEqual := func(n int) []hetsort.Key {
		keys := make([]hetsort.Key, n)
		for i := range keys {
			keys[i] = 7777777
		}
		return keys
	}
	seq := func(n int, reverse bool) []hetsort.Key {
		keys := make([]hetsort.Key, n)
		for i := range keys {
			if reverse {
				keys[i] = hetsort.Key(n - i)
			} else {
				keys[i] = hetsort.Key(i)
			}
		}
		return keys
	}

	add("empty", nil, nil)
	add("single", []hetsort.Key{42}, nil)
	add("n<p", []hetsort.Key{3, 1, 2}, nil) // 3 keys on 4 nodes
	add("all-equal", allEqual(600), nil)
	add("sorted", seq(600, false), nil)
	add("reverse", seq(600, true), nil)
	// n not a multiple of lcm(perf): perf {1,1,4,4} has practical
	// quantum 20; 1009 is prime, so every node's share rounds.
	add("off-quantum", record.Uniform.Generate(1009, 11, 4), func(cfg *hetsort.Config) {
		cfg.Perf = []int{1, 1, 4, 4}
	})
	// The degenerate sizes again under each non-default pivot strategy.
	for _, strat := range []string{hetsort.PivotRandom, hetsort.PivotQuantileSketch, hetsort.PivotHistogram} {
		strat := strat
		add("empty/"+strat, nil, func(cfg *hetsort.Config) { cfg.PivotStrategy = strat })
		add("n<p/"+strat, []hetsort.Key{9, 1}, func(cfg *hetsort.Config) { cfg.PivotStrategy = strat })
		add("all-equal/"+strat, allEqual(500), func(cfg *hetsort.Config) { cfg.PivotStrategy = strat })
	}
	// Hierarchical bases: duplicate-heavy routing through the tree, and
	// n<p under the grid (Execute adds the flat reference run for the
	// equivalence compare).
	add("all-equal/tree-r2", allEqual(600), func(cfg *hetsort.Config) {
		cfg.Topology = hetsort.TopologyTree
		cfg.Radix = 2
	})
	add("n<p/grid", []hetsort.Key{3, 1, 2}, func(cfg *hetsort.Config) {
		cfg.Topology = hetsort.TopologyGrid
	})
	// Multi-disk bases: duplicates and degenerate sizes on striped and
	// independent D-disk nodes (Execute adds the single-disk reference
	// run for the cross-D equivalence compare).
	add("all-equal/d4", allEqual(600), func(cfg *hetsort.Config) { cfg.Disks = 4 })
	add("n<p/d2-independent", []hetsort.Key{3, 1, 2}, func(cfg *hetsort.Config) {
		cfg.Disks = 2
		cfg.DiskAccess = hetsort.DiskAccessIndependent
	})
	if !quick {
		add("off-quantum/tree-r4", record.Uniform.Generate(1009, 13, 8), func(cfg *hetsort.Config) {
			cfg.Perf = []int{1, 1, 4, 4, 1, 1, 4, 4}
			cfg.Topology = hetsort.TopologyTree
			cfg.Radix = 4
		})
		add("all-equal/hetero", allEqual(2040), func(cfg *hetsort.Config) { cfg.Perf = []int{8, 5, 3, 1} })
		add("sorted/load-sort", seq(2000, false), func(cfg *hetsort.Config) {
			cfg.RunFormation = hetsort.RunLoadSort
		})
		add("reverse/guidesort", seq(2000, true), func(cfg *hetsort.Config) {
			cfg.RunFormation = hetsort.RunGuidesort
		})
		// D crossed with a hierarchical topology: multi-round
		// redistribution over striped node disks.
		add("off-quantum/d4/tree-r4", record.Uniform.Generate(1009, 17, 8), func(cfg *hetsort.Config) {
			cfg.Perf = []int{1, 1, 4, 4, 1, 1, 4, 4}
			cfg.Topology = hetsort.TopologyTree
			cfg.Radix = 4
			cfg.Disks = 4
		})
		add("reverse/dewitt", seq(2000, true), func(cfg *hetsort.Config) {
			cfg.Algorithm = hetsort.AlgorithmDeWitt
		})
	}
	return cases
}

// GenerateCase draws one deterministic random point of the Config ×
// input cross-product from the seed.
func GenerateCase(seed int64, quick bool) *Case {
	r := rand.New(rand.NewSource(seed))
	cfg := hetsort.Config{Seed: seed}
	smallMachine(&cfg)

	perfChoices := [][]int{nil, {1, 2}, {1, 1, 4, 4}, {8, 5, 3, 1}, {2, 2, 2}, {3, 1}}
	cfg.Perf = perfChoices[r.Intn(len(perfChoices))]
	p := len(cfg.Perf)
	if p == 0 {
		p = 4
		cfg.Nodes = 4
	}

	strategies := []string{"", hetsort.PivotRandom, hetsort.PivotQuantileSketch, hetsort.PivotHistogram}
	cfg.PivotStrategy = strategies[r.Intn(len(strategies))]
	if cfg.PivotStrategy == hetsort.PivotHistogram && r.Intn(2) == 0 {
		cfg.HistTolerance = []float64{0.01, 0.1, 0.5}[r.Intn(3)]
	}
	switch r.Intn(3) {
	case 1:
		cfg.RunFormation = hetsort.RunLoadSort
	case 2:
		cfg.RunFormation = hetsort.RunGuidesort
	}
	// Disks: mostly the single-disk default, with striped and
	// independent multi-disk points so the disk invariant and the
	// cross-D equivalence variant also start from a D > 1 base.
	switch r.Intn(4) {
	case 0:
		cfg.Disks = 2
	case 1:
		cfg.Disks = 4
		if r.Intn(2) == 1 {
			cfg.DiskAccess = hetsort.DiskAccessIndependent
		}
	}
	// Topology: mostly flat (the default), with hierarchical points so
	// the equivalence axis also starts from a non-flat base (Execute
	// then adds the flat reference run).
	switch r.Intn(6) {
	case 0:
		cfg.Topology = hetsort.TopologyTree
		cfg.Radix = []int{2, 4, 16}[r.Intn(3)]
	case 1:
		cfg.Topology = hetsort.TopologyGrid
	}
	if r.Intn(8) == 0 {
		// Occasionally sweep the DeWitt baseline (PSRS-only axes and
		// invariants auto-skip).
		cfg.Algorithm = hetsort.AlgorithmDeWitt
		cfg.PivotStrategy = ""
		cfg.Topology, cfg.Radix = "", 0
	}
	if r.Intn(4) == 0 {
		cfg.Network = hetsort.NetworkIdeal
	}
	// Vary the machine a little while keeping extsort's constraints
	// (MemoryKeys >= Tapes*BlockKeys).
	blocks := []int{8, 16, 32}
	cfg.BlockKeys = blocks[r.Intn(len(blocks))]
	tapes := []int{3, 4, 6}
	cfg.Tapes = tapes[r.Intn(len(tapes))]
	mems := []int{256, 512, 1024}
	cfg.MemoryKeys = mems[r.Intn(len(mems))]
	if min := cfg.Tapes * cfg.BlockKeys; cfg.MemoryKeys < min {
		cfg.MemoryKeys = min
	}
	msgs := []int{16, 64, 256}
	cfg.MessageKeys = msgs[r.Intn(len(msgs))]

	// Input size: degenerate, small, Equation-2-exact, or off-quantum.
	v := perf.Vector(cfg.Perf)
	if len(v) == 0 {
		v = perf.Homogeneous(p)
	}
	var n int
	switch r.Intn(6) {
	case 0:
		n = r.Intn(p) // includes 0 and n<p
	case 1:
		n = p + r.Intn(64)
	case 2:
		n = int(v.NearestValidSize(int64(500 + r.Intn(2000)))) // Equation-2 exact
	default:
		n = 300 + r.Intn(3500)
		if !quick {
			n = 300 + r.Intn(12000)
		}
	}

	dists := []record.Distribution{record.Uniform, record.Zipf, record.Sorted,
		record.Reverse, record.Staggered, record.Bucket, record.Gaussian, record.NearlySorted,
		record.HeavyDup, record.ZipfS2, record.Staircase, record.SamplerKiller}
	dist := dists[r.Intn(len(dists))]
	keys := dist.Generate(n, seed, p)
	if r.Intn(8) == 0 {
		// All-equal input: the hardest duplicate case.
		for i := range keys {
			keys[i] = 123456789
		}
	}

	name := fmt.Sprintf("seed%d/%s/p%d/%s/n=%d", seed, dist, p, stratName(cfg), n)
	if !flatTopology(cfg) {
		name += "/" + cfg.Topology
		if cfg.Topology == hetsort.TopologyTree {
			name += fmt.Sprintf("-r%d", cfg.Radix)
		}
	}
	if cfg.Disks > 1 {
		name += fmt.Sprintf("/d%d", cfg.Disks)
		if cfg.DiskAccess == hetsort.DiskAccessIndependent {
			name += "-ind"
		}
	}
	return &Case{Name: name, Seed: seed, Keys: keys, Config: cfg}
}

func stratName(cfg hetsort.Config) string {
	if cfg.Algorithm == hetsort.AlgorithmDeWitt {
		return "dewitt"
	}
	if cfg.PivotStrategy == "" {
		return "regular"
	}
	return cfg.PivotStrategy
}
