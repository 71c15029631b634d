package extsort

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/perf"
	"hetsort/internal/polyphase"
	"hetsort/internal/record"
	"hetsort/internal/vtime"
)

// sawtooth returns runs segments of memKeys random keys, the last one
// five keys short, each segment's keys all below the previous segment's:
// every run former cuts exactly one run per segment.
func sawtooth(runs, memKeys int, seed int64) []record.Key {
	r := rand.New(rand.NewSource(seed))
	keys := make([]record.Key, 0, runs*memKeys)
	for s := 0; s < runs; s++ {
		size := memKeys
		if s == runs-1 {
			size -= 5
		}
		base := uint32(runs-1-s) << 20
		for i := 0; i < size; i++ {
			keys = append(keys, record.Key(base+uint32(r.Intn(1<<20))))
		}
	}
	return keys
}

// TestIndexCapturedEqualsRebuilt holds the index step 1 keeps while it
// writes the sorted file against the file itself and against the index a
// resumed node rebuilds by scanning it, for run counts 1, 2, T−1, T, T+1
// and the perfect-Fibonacci 9 of three input tapes, under every run
// former.  With 2 runs the one merge step's third input is a dummy; with
// 1 the run former writes the file and no merge runs.
func TestIndexCapturedEqualsRebuilt(t *testing.T) {
	const block, mem, tapes = 16, 256, 4
	v := perf.Vector{1, 3}
	for _, rf := range []polyphase.RunFormation{polyphase.ReplacementSelection, polyphase.LoadSort, polyphase.Guidesort} {
		for _, strat := range []Strategy{RegularSampling, RandomPivots} {
			for _, runs := range []int{1, 2, tapes - 1, tapes, tapes + 1, 9} {
				t.Run(fmt.Sprintf("%s/%s/runs=%d", rf, strat, runs), func(t *testing.T) {
					c := newCluster(t, v)
					n := c.Node(1)
					keys := sawtooth(runs, mem, int64(runs))
					if err := diskio.WriteFile(n.FS(), "input", keys, block, diskio.Accounting{}); err != nil {
						t.Fatal(err)
					}
					w := &worker{n: n, cfg: Config{Perf: v, BlockKeys: block, MemoryKeys: mem, Tapes: tapes, Strategy: strat, Seed: 5}}
					x := w.newIndex(int64(len(keys)), false)
					pc := polyphase.Config{FS: n.FS(), BlockKeys: block, MemoryKeys: mem, Tapes: tapes, RunFormation: rf, TempPrefix: "t."}
					stats, err := polyphase.SortObserved(pc, "input", sortedName, x.observe)
					if err != nil {
						t.Fatal(err)
					}
					w.runs = []diskio.Section{{Name: sortedName, Keys: int64(len(keys))}}
					x.settle(w.runs)
					if stats.Runs != int64(runs) {
						t.Fatalf("formed %d runs, want %d", stats.Runs, runs)
					}
					sorted, err := diskio.ReadFileAll(n.FS(), sortedName, block, diskio.Accounting{})
					if err != nil {
						t.Fatal(err)
					}
					if len(x.samples) == 0 || x.fences == nil {
						t.Fatalf("index kept %d samples and fences %v", len(x.samples), x.fences != nil)
					}
					for j, at := range x.at {
						if x.samples[j] != sorted[at] {
							t.Fatalf("sample %d at %d is %d, the file holds %d", j, at, x.samples[j], sorted[at])
						}
					}
					for b, f := range x.fences[0] {
						if f != sorted[b*block] {
							t.Fatalf("fence %d is %d, the file holds %d", b, f, sorted[b*block])
						}
					}
					w.index = nil
					rebuilt, err := w.sortedIndex()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(x, rebuilt) {
						t.Fatalf("captured index %+v, rebuilt %+v", x, rebuilt)
					}
				})
			}
		}
	}
}

// TestIndexMemoryBound: fences are kept only when they fit beside the
// samples in the M − T·B keys the final merge leaves free; without them
// a rank query scans the file.
func TestIndexMemoryBound(t *testing.T) {
	v := perf.Vector{1, 3}
	for _, mem := range []int{1024, 400} {
		t.Run(fmt.Sprintf("M=%d", mem), func(t *testing.T) {
			c := newCluster(t, v)
			n := c.Node(1)
			keys := record.Uniform.Generate(12000, 3, 1)
			slices.Sort(keys)
			if err := diskio.WriteFile(n.FS(), sortedName, keys, 64, diskio.Accounting{}); err != nil {
				t.Fatal(err)
			}
			w := &worker{n: n, cfg: Config{Perf: v, BlockKeys: 64, MemoryKeys: mem, Tapes: 6},
				runs: []diskio.Section{{Name: sortedName, Keys: int64(len(keys))}}, files: diskio.Readers{FS: n.FS()}}
			x, err := w.sortedIndex()
			if err != nil {
				t.Fatal(err)
			}
			free := mem - 6*64
			lb := int64(len(keys)+63) / 64
			kept := len(x.samples)
			if x.fences != nil {
				kept += len(x.fences[0])
			}
			switch {
			case x.fences != nil && kept > free:
				t.Fatalf("index holds %d keys, more than M − T·B = %d", kept, free)
			case x.fences == nil && int(lb)+len(x.samples) <= free:
				t.Fatalf("fences dropped though %d fences and %d samples fit in %d", lb, len(x.samples), free)
			}
			before := n.IOStats()
			if _, err := w.ranks([]record.Key{keys[5000]}, n.Acct()); err != nil {
				t.Fatal(err)
			}
			want := pdm.IOStats{Reads: 1, Seeks: 1}
			if x.fences == nil {
				want = pdm.IOStats{Reads: lb}
			}
			if got := n.IOStats().Sub(before); got != want {
				t.Fatalf("one rank query did I/O %+v, want %+v", got, want)
			}
		})
	}
}

// TestRanksMatchCountSublists holds ranks, on its probe path and on its
// scan fallback, to scanRanks' answers — rank and neighbouring keys —
// over every generator and the degenerate files, for queries below the
// first key, above the last, equal to a fence, equal to stored keys and
// in between.  A probe costs exactly one seek and one block read per
// distinct block the ranks land in.
func TestRanksMatchCountSublists(t *testing.T) {
	const block = 8
	files := map[string][]record.Key{
		"empty":      nil,
		"below-B":    {3, 5, 5, 9},
		"all-equal":  make([]record.Key, 100),
		"one-block":  {1, 2, 3, 4, 5, 6, 7, 8},
		"ragged-end": {1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	for i := range files["all-equal"] {
		files["all-equal"][i] = 77
	}
	for _, d := range record.Distributions() {
		keys := d.Generate(1000, 9, 1)
		slices.Sort(keys)
		files[d.String()] = keys
	}
	models := map[string]vtime.CostModel{
		"probe": {ComputeSec: 1.6e-7, IOBlockSecPerKey: 9e-7},               // seeks free: probing wins
		"scan":  {ComputeSec: 1.6e-7, IOBlockSecPerKey: 9e-7, SeekSec: 1e9}, // seeks prohibitive
	}
	for name, keys := range files {
		for mname, cm := range models {
			t.Run(name+"/"+mname, func(t *testing.T) {
				c, err := cluster.New(cluster.Config{Slowdowns: []float64{1}, BlockKeys: block, Cost: cm})
				if err != nil {
					t.Fatal(err)
				}
				n := c.Node(0)
				if err := diskio.WriteFile(n.FS(), sortedName, keys, block, diskio.Accounting{}); err != nil {
					t.Fatal(err)
				}
				// Sparse enough that most files probe fewer blocks than they hold.
				qs := []record.Key{0, 1, 6, 77, 1 << 31, ^record.Key(0)}
				for i := 0; i < len(keys); i += 16 * block {
					qs = append(qs, keys[i]) // fences
				}
				r := rand.New(rand.NewSource(int64(len(keys))))
				for i := 0; i < 10 && len(keys) > 0; i++ {
					k := keys[r.Intn(len(keys))]
					qs = append(qs, k, k+1, k-1)
				}
				slices.Sort(qs)
				w := &worker{n: n, cfg: Config{Perf: perf.Homogeneous(1), BlockKeys: block, MemoryKeys: 1 << 16, Tapes: 3},
					runs: []diskio.Section{{Name: sortedName, Keys: int64(len(keys))}}, files: diskio.Readers{FS: n.FS()}}
				want, err := w.scanRanks(w.runs[0], qs, diskio.Accounting{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.sortedIndex(); err != nil {
					t.Fatal(err)
				}
				before := n.IOStats()
				got, err := w.ranks(qs, n.Acct())
				if err != nil {
					t.Fatal(err)
				}
				io := n.IOStats().Sub(before)
				blocks := map[int64]bool{}
				for j, q := range qs {
					if got[j] != want[j] {
						t.Fatalf("ranks(%d) = %+v, scanRanks says %+v", q, got[j], want[j])
					}
					if rank := want[j].N; rank > 0 {
						blocks[(rank-1)/block] = true
					}
				}
				// With free seeks a probe prices below the scan while it
				// reads fewer blocks than the file holds.
				d, lb := int64(len(blocks)), (int64(len(keys))+block-1)/block
				wantIO := pdm.IOStats{Reads: d, Seeks: d}
				if mname == "scan" || d >= lb {
					wantIO = pdm.IOStats{Reads: lb}
				}
				if io != wantIO {
					t.Fatalf("%d queries over %d keys did I/O %+v, want %+v", len(qs), len(keys), io, wantIO)
				}
			})
		}
	}
}

// TestResumeRebuildsIndex: a node that dies after committing step 1
// loses its index with the process.  The resumed run rebuilds it with one
// charged scan of the sorted file in step 2 — regular sampling reads
// nothing else there — and places the same pivots and the same cuts as
// the index step 1 captured.
func TestResumeRebuildsIndex(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	n := v.NearestValidSize(1 << 14)
	const node = 2
	// run sorts with a checkpoint, node `node` dying at each of the
	// points in turn, and returns the last (uninterrupted) resume's result
	// and the cuts node's manifest held after the final crash.
	run := func(points ...string) (*Report, []int64, []record.Key) {
		c := newCluster(t, v)
		cfg := testConfig(v)
		cfg.Checkpoint = true
		sum, err := DistributeInput(c, v, record.Uniform, n, 42, cfg.BlockKeys, "input")
		if err != nil {
			t.Fatal(err)
		}
		cfg.InputSum = sum
		var cuts []int64
		sort := func() (*Report, error) { return Sort(c, cfg, "input", "output") }
		for _, point := range points {
			if err := c.ScheduleCrash(node, -1, point); err != nil {
				t.Fatal(err)
			}
			if _, err := sort(); !cluster.IsCrash(err) {
				t.Fatalf("crash at %q did not surface: %v", point, err)
			}
			c.ClearCrashes()
			_, all := manifestState(t, c)
			cuts = all[node]
			sort = func() (*Report, error) { res, _, err := Resume(c, cfg, "input", "output"); return res, err }
		}
		res, err := sort()
		if err != nil {
			t.Fatal(err)
		}
		return res, cuts, collectOutput(t, c, cfg.BlockKeys)
	}
	ref, refCuts, refOut := run("committed:" + StepNames[2])
	res, cuts, out := run("committed:"+StepNames[0], "committed:"+StepNames[2])
	if !slices.Equal(cuts, refCuts) || len(cuts) != len(v)+1 {
		t.Fatalf("cuts after the index rebuild %v, captured index gave %v", cuts, refCuts)
	}
	if !slices.Equal(res.Pivots, ref.Pivots) || !slices.Equal(out, refOut) {
		t.Fatal("pivots or output changed across the index rebuild")
	}
	// The same crash, resumed straight through: step 2 is the rebuild scan.
	res, _, _ = run("committed:" + StepNames[0])
	lb := (v.Shares(n)[node] + int64(testConfig(v).BlockKeys) - 1) / int64(testConfig(v).BlockKeys)
	if got := res.StepIO[1][node]; got.Reads != lb {
		t.Fatalf("resumed node's step 2 did I/O %+v, want the one rebuild scan of %d blocks", got, lb)
	}
}
