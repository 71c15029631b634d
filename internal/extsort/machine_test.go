package extsort

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/perf"
	"hetsort/internal/record"
)

// TestMachineRejectsBadValues: Build refuses every bad machine before
// it opens a single node disk.
func TestMachineRejectsBadValues(t *testing.T) {
	two := perf.Vector{1, 1}
	for _, tc := range []struct {
		name string
		edit func(*Machine)
		want string
	}{
		{"empty perf", func(m *Machine) { m.Perf = nil }, "empty vector"},
		{"perf 0", func(m *Machine) { m.Perf = perf.Vector{1, 0} }, "perf[1]=0"},
		{"loads length", func(m *Machine) { m.Loads = []float64{1} }, "1 loads for 2 nodes"},
		{"NaN load", func(m *Machine) { m.Loads = []float64{1, math.NaN()} }, "load[1]=NaN"},
		{"M below T·B", func(m *Machine) { m.MemoryKeys = 100 }, "MemoryKeys=100"},
		{"T = 2", func(m *Machine) { m.Tapes = 2 }, "Tapes=2"},
		{"tree radix 1", func(m *Machine) { m.Topology, m.Radix = TopologyTree, 1 }, "Radix=1"},
		{"HistTolerance 1", func(m *Machine) { m.HistTolerance = 1 }, "HistTolerance=1"},
		{"crash phase 6", func(m *Machine) { m.CrashPhase = 6 }, "CrashPhase 6"},
		{"crash node p", func(m *Machine) { m.CrashPhase, m.CrashNode = 2, 2 }, "CrashNode 2"},
	} {
		opened := 0
		m := Machine{Config: testConfig(two), Disks: func(int) (diskio.FS, error) {
			opened++
			return diskio.NewMemFS(), nil
		}}
		tc.edit(&m)
		_, err := m.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %q", tc.name, err, tc.want)
		}
		if opened != 0 {
			t.Errorf("%s: %d node disks opened before the machine was refused", tc.name, opened)
		}
	}
}

// TestMachineOpenerErrorSurfaces: a node disk that cannot be opened
// fails Build with the opener's error.
func TestMachineOpenerErrorSurfaces(t *testing.T) {
	bad := errors.New("node 1 disk unavailable")
	m := Machine{Config: testConfig(perf.Vector{1, 1, 1}), Disks: func(id int) (diskio.FS, error) {
		if id == 1 {
			return nil, bad
		}
		return diskio.NewMemFS(), nil
	}}
	if _, err := m.Build(); !errors.Is(err, bad) {
		t.Fatalf("Build: %v, want the opener's error", err)
	}
}

// TestMachineArmsCrash: a built machine's first sort dies at the armed
// crash, and Resume on the same cluster finishes byte-identical to an
// uncrashed machine's run.
func TestMachineArmsCrash(t *testing.T) {
	v := perf.Vector{1, 1, 4, 4}
	const n = 20000
	run := func(crashPhase int) ([]record.Key, *cluster.Cluster, Config, error) {
		m := Machine{Config: testConfig(v), CrashPhase: crashPhase, CrashNode: 2}
		m.Checkpoint = true
		c, err := m.Build()
		if err != nil {
			t.Fatal(err)
		}
		if m.InputSum, err = DistributeInput(c, v, record.Uniform, n, 5, m.BlockKeys, "input"); err != nil {
			t.Fatal(err)
		}
		if _, err := Sort(c, m.Config, "input", "output"); err != nil {
			return nil, c, m.Config, err
		}
		return collectOutput(t, c, m.BlockKeys), c, m.Config, nil
	}
	want, _, _, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	_, c, cfg, err := run(3)
	if !cluster.IsCrash(err) {
		t.Fatalf("armed machine: %v, want the injected crash", err)
	}
	if _, _, err := Resume(c, cfg, "input", "output"); err != nil {
		t.Fatal(err)
	}
	if got := collectOutput(t, c, cfg.BlockKeys); !slices.Equal(got, want) {
		t.Fatal("resumed output differs from the uncrashed run")
	}
}

// TestMachineResolveIdempotent: resolving a resolved machine changes
// nothing.
func TestMachineResolveIdempotent(t *testing.T) {
	m := Machine{Config: Config{Perf: perf.Vector{1, 2, 4}}, CrashPhase: 3, CrashNode: 1}
	if err := m.Resolve(); err != nil {
		t.Fatal(err)
	}
	once := m
	if err := m.Resolve(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, once) {
		t.Fatalf("second Resolve changed the machine:\n%+v\n%+v", once, m)
	}
	if !slices.Equal(m.Loads, m.Perf.Slowdowns()) || m.MemoryKeys != 1<<16 {
		t.Fatalf("defaults not filled in: loads %v, M %d", m.Loads, m.MemoryKeys)
	}
}
