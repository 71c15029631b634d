package extsort

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

// heldFiles counts the files open at once on the disks that share its
// counters, and records which goroutines opened them.
type heldFiles struct {
	diskio.FS
	open, peak *atomic.Int64
	openers    *sync.Map // goroutine id → true
}

func (h heldFiles) Create(name string) (diskio.File, error) { return h.hold(h.FS.Create(name)) }
func (h heldFiles) Open(name string) (diskio.File, error)   { return h.hold(h.FS.Open(name)) }

func (h heldFiles) hold(f diskio.File, err error) (diskio.File, error) {
	if err != nil {
		return nil, err
	}
	n := h.open.Add(1)
	for old := h.peak.Load(); n > old; old = h.peak.Load() {
		if h.peak.CompareAndSwap(old, n) {
			break
		}
	}
	// runtime.Stack's first line is "goroutine <id> [running]:".
	buf := make([]byte, 64)
	h.openers.Store(string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1]), true)
	return heldFile{f, h.open}, nil
}

type heldFile struct {
	diskio.File
	open *atomic.Int64
}

func (f heldFile) Close() error {
	f.open.Add(-1)
	return f.File.Close()
}

// TestStageInputVerifyAndLandKeepToThePool holds staging (StageInput,
// StageFile), verification (VerifyOutput) and landing (LandOutput) on a
// p = 1024 machine to at most GOMAXPROCS node files open at once, opened
// by at most GOMAXPROCS goroutines: a directory-backed run then never
// parks more OS threads than that in file syscalls.
func TestStageInputVerifyAndLandKeepToThePool(t *testing.T) {
	const p, block = 1024, 4
	var open, peak atomic.Int64
	var openers sync.Map
	m := Machine{Config: testConfig(perf.Homogeneous(p)), Disks: func(int) (diskio.FS, error) {
		return heldFiles{diskio.NewMemFS(), &open, &peak, &openers}, nil
	}}
	c, err := m.Build()
	if err != nil {
		t.Fatal(err)
	}
	keys := record.Uniform.Generate(8*p+5, 1, 1)
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	shares := m.Perf.Shares(int64(len(keys)))
	reset := func() {
		peak.Store(0)
		openers.Range(func(id, _ any) bool {
			openers.Delete(id)
			return true
		})
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			bounded := func(step string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if got := peak.Load(); got < 1 || got > int64(procs) {
					t.Errorf("%s: %d node files open at once", step, got)
				}
				n := 0
				openers.Range(func(any, any) bool { n++; return true })
				if n > procs {
					t.Errorf("%s: %d goroutines opened node files", step, n)
				}
				reset()
			}
			reset()
			want, err := StageInput(c, m.Perf, keys, block, "input")
			bounded("StageInput", err)
			sum, err := StageFile(c, m.Perf, bytes.NewReader(record.EncodeKeys(nil, keys)), int64(len(keys)), block, "input")
			bounded("StageFile", err)
			if sum != want {
				t.Fatalf("StageFile's checksum %v, StageInput's %v", sum, want)
			}
			if _, err := StageInput(c, m.Perf, sorted, block, "output"); err != nil {
				t.Fatal(err)
			}
			reset()
			bounded("VerifyOutput", VerifyOutput(c, "output", block, want))
			var landed []record.Key
			bounded("LandOutput", LandOutput(c, "output", block, want, shares, func(n int64) (Lander, error) {
				landed = make([]record.Key, n)
				return func(off int64, keys []record.Key) error {
					copy(landed[off:], keys)
					return nil
				}, nil
			}))
			if !slices.Equal(landed, sorted) {
				t.Fatalf("landed output differs from the sorted input")
			}
		})
	}
}

// TestStageInputFromAFileSplitsAlike: StageFile puts each node's portion
// of a host file on its disk exactly as StageInput puts that of the same
// keys, at every portion size around the block and around the 8192-key
// chunk StageFile reads.
func TestStageInputFromAFileSplitsAlike(t *testing.T) {
	v := perf.Vector{1, 3, 2}
	for _, n := range []int{0, 5, 6 * 7, 6*7 + 6, 6 * 8192, 6*8192 + 6*7 + 5} {
		keys := record.Uniform.Generate(n, int64(n), 1)
		a, b := newCluster(t, v), newCluster(t, v)
		want, err := StageInput(a, v, keys, 7, "input")
		if err != nil {
			t.Fatal(err)
		}
		got, err := StageFile(b, v, bytes.NewReader(record.EncodeKeys(nil, keys)), int64(n), 7, "input")
		if err != nil {
			t.Fatal(err)
		}
		if got != want || want != record.ChecksumOf(keys) {
			t.Errorf("n=%d: StageFile's checksum %v, StageInput's %v", n, got, want)
		}
		for i := range v {
			x, _ := diskio.ReadFileAll(a.Node(i).FS(), "input", 7, diskio.Accounting{})
			y, err := diskio.ReadFileAll(b.Node(i).FS(), "input", 7, diskio.Accounting{})
			if err != nil || !slices.Equal(x, y) {
				t.Errorf("n=%d node %d: StageFile wrote %v (%v), StageInput %v", n, i, y, err, x)
			}
		}
	}
	_, err := StageFile(newCluster(t, v), v, bytes.NewReader(make([]byte, 20)), 6, 7, "input")
	if want := "extsort: writing node 2 input: reading input"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a short input gave %v, want %q", err, want)
	}
}
