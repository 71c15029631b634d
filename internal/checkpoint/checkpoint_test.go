package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/pdm"
	"hetsort/internal/record"
)

func sampleManifest(node, p, phase int) *Manifest {
	return &Manifest{
		Node:   node,
		P:      p,
		Phase:  phase,
		Clock:  3.25,
		Sig:    "test-sig",
		Pivots: []record.Key{100, 200, 300},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	fs := diskio.NewMemFS()
	m := sampleManifest(1, 4, 2)
	m.Input.Update([]record.Key{7, 8, 9})
	var ctr pdm.Counter
	if err := Save(fs, m, diskio.Accounting{Counter: &ctr}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != 1 || got.P != 4 || got.Phase != 2 || got.Clock != 3.25 || got.Sig != "test-sig" {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}
	if len(got.Pivots) != 3 || got.Pivots[1] != 200 {
		t.Fatalf("pivots %v", got.Pivots)
	}
	if !got.Input.Equal(m.Input) {
		t.Fatal("input checksum mangled")
	}
	if s := ctr.Snapshot(); s.Writes != 1 || s.Seeks != 1 {
		t.Fatalf("commit not charged: %+v", s)
	}
	// The temp file must not linger after a successful commit.
	if names, _ := fs.Names(); !slices.Equal(names, []string{ManifestName}) {
		t.Fatalf("files after a commit: %v", names)
	}
}

func TestSaveOverwritesPrevious(t *testing.T) {
	fs := diskio.NewMemFS()
	for phase := 1; phase <= Phases; phase++ {
		if err := Save(fs, sampleManifest(0, 2, phase), diskio.Accounting{}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Load(fs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Phase != Phases {
		t.Fatalf("latest commit not visible: phase %d", m.Phase)
	}
}

func TestLoadMissing(t *testing.T) {
	_, err := Load(diskio.NewMemFS())
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want not-exist, got %v", err)
	}
}

func TestLoadTornWrite(t *testing.T) {
	fs := diskio.NewMemFS()
	if err := Save(fs, sampleManifest(0, 2, 3), diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	// Truncate the manifest mid-body, as a crash during a non-atomic
	// write would.
	f, err := fs.Open(ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	torn, err := fs.Create(ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := torn.Write(raw[:len(raw)-7]); err != nil {
		t.Fatal(err)
	}
	torn.Close()
	if _, err := Load(fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn manifest not detected: %v", err)
	}
}

func TestLoadFlippedBit(t *testing.T) {
	fs := diskio.NewMemFS()
	if err := Save(fs, sampleManifest(0, 2, 3), diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open(ManifestName)
	raw, _ := io.ReadAll(f)
	f.Close()
	raw[len(raw)-5] ^= 0x40
	g, _ := fs.Create(ManifestName)
	g.Write(raw)
	g.Close()
	if _, err := Load(fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip not detected: %v", err)
	}
}

func TestLoadBadMagic(t *testing.T) {
	fs := diskio.NewMemFS()
	f, _ := fs.Create(ManifestName)
	io.WriteString(f, "some other file format\n{}")
	f.Close()
	if _, err := Load(fs); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic not detected: %v", err)
	}
}

func TestValidateFileDeps(t *testing.T) {
	fs := diskio.NewMemFS()
	if err := diskio.WriteFile(fs, "sorted", []record.Key{1, 2, 3}, 2, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	m := sampleManifest(0, 1, 1)
	m.Files = []FileInfo{{Name: "sorted", Keys: 3}}
	if err := m.Validate(fs); err != nil {
		t.Fatalf("valid deps rejected: %v", err)
	}
	m.Files[0].Keys = 4
	if err := m.Validate(fs); err == nil {
		t.Fatal("truncated dependency accepted")
	}
	m.Files[0] = FileInfo{Name: "missing", Keys: 1}
	if err := m.Validate(fs); err == nil {
		t.Fatal("missing dependency accepted")
	}
}

func planDisks(t *testing.T, phases ...int) []diskio.FS {
	t.Helper()
	disks := make([]diskio.FS, len(phases))
	for i, ph := range phases {
		disks[i] = diskio.NewMemFS()
		m := sampleManifest(i, len(phases), ph)
		if ph == 3 || ph == 4 {
			// These phases stand on the sorted file and its cuts.
			if err := diskio.WriteFile(disks[i], "sorted", make([]record.Key, len(phases)), 2, diskio.Accounting{}); err != nil {
				t.Fatal(err)
			}
			m.Files = []FileInfo{{Name: "sorted", Keys: int64(len(phases))}}
			for j := 0; j <= len(phases); j++ {
				m.Cuts = append(m.Cuts, int64(j))
			}
		}
		if err := Save(disks[i], m, diskio.Accounting{}); err != nil {
			t.Fatal(err)
		}
	}
	return disks
}

func TestPlanAggregates(t *testing.T) {
	disks := planDisks(t, 1, 3, 2, 5)
	r, err := Plan(disks, "test-sig")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Done, []int{1, 3, 2, 5}) {
		t.Fatalf("Done = %v", r.Done)
	}
	// A node at phase >= 2 carried the pivots.
	if len(r.Pivots) != 3 {
		t.Fatalf("pivots not recovered: %v", r.Pivots)
	}
	if r.Clocks[2] != 3.25 {
		t.Fatalf("clocks %v", r.Clocks)
	}
	// Cuts are each node's own, and only phases 3-4 have any.
	if got := fmt.Sprint(r.Cuts); got != "[[] [0 1 2 3 4] [] []]" {
		t.Fatalf("cuts %v", got)
	}
}

// TestValidateCuts: a phase-3 or phase-4 manifest must carry P+1 cuts
// that ascend from 0 to the length of the sorted file, its first
// dependency, as found on disk.
func TestValidateCuts(t *testing.T) {
	fs := diskio.NewMemFS()
	if err := diskio.WriteFile(fs, "sorted", []record.Key{1, 2, 3, 4, 5}, 2, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		phase int
		cuts  []int64
		files []FileInfo
		ok    bool
	}{
		{"phase 3", 3, []int64{0, 2, 5}, []FileInfo{{Name: "sorted", Keys: 5}}, true},
		{"phase 4, empty buckets", 4, []int64{0, 0, 5}, []FileInfo{{Name: "sorted", Keys: 5}}, true},
		{"phase 2 needs none", 2, nil, []FileInfo{{Name: "sorted", Keys: 5}}, true},
		{"none recorded", 3, nil, []FileInfo{{Name: "sorted", Keys: 5}}, false},
		{"too few", 3, []int64{0, 5}, []FileInfo{{Name: "sorted", Keys: 5}}, false},
		{"not from zero", 3, []int64{1, 2, 5}, []FileInfo{{Name: "sorted", Keys: 5}}, false},
		{"descending", 3, []int64{0, 3, 2}, []FileInfo{{Name: "sorted", Keys: 5}}, false},
		{"short of the file", 3, []int64{0, 2, 4}, []FileInfo{{Name: "sorted", Keys: 5}}, false},
		{"past the file", 3, []int64{0, 2, 6}, []FileInfo{{Name: "sorted", Keys: 6}}, false},
		{"no sorted file listed", 3, []int64{0, 2, 5}, nil, false},
		{"sorted file gone", 4, []int64{0, 2, 5}, []FileInfo{{Name: "lost", Keys: 5}}, false},
	} {
		m := sampleManifest(0, 2, tc.phase)
		m.Cuts, m.Files = tc.cuts, tc.files
		err := m.Validate(fs)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestValidateTies: a tie must name one of the manifest's pivots, one of
// the cluster's nodes and a non-negative take, in pivot order — and
// survive a save and a load.
func TestValidateTies(t *testing.T) {
	fs := diskio.NewMemFS()
	for _, tc := range []struct {
		name string
		ties []Tie
		ok   bool
	}{
		{"none", nil, true},
		{"two", []Tie{{Pivot: 0, Node: 1, Take: 5}, {Pivot: 2, Node: 0, Take: 0}}, true},
		{"pivot past the pivots", []Tie{{Pivot: 3, Node: 0, Take: 1}}, false},
		{"negative pivot", []Tie{{Pivot: -1, Node: 0, Take: 1}}, false},
		{"node past the cluster", []Tie{{Pivot: 0, Node: 2, Take: 1}}, false},
		{"negative take", []Tie{{Pivot: 0, Node: 0, Take: -1}}, false},
		{"out of pivot order", []Tie{{Pivot: 1, Node: 0, Take: 1}, {Pivot: 1, Node: 1, Take: 1}}, false},
	} {
		m := sampleManifest(0, 2, 2)
		m.Ties = tc.ties
		err := m.Validate(fs)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
		if !tc.ok {
			continue
		}
		if err := Save(fs, m, diskio.Accounting{}); err != nil {
			t.Fatal(err)
		}
		got, err := Load(fs)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Ties) != fmt.Sprint(tc.ties) {
			t.Errorf("%s: ties %v after a round trip, want %v", tc.name, got.Ties, tc.ties)
		}
	}
}

func TestPlanComplete(t *testing.T) {
	r, err := Plan(planDisks(t, 5, 5), "test-sig")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Done, []int{Phases, Phases}) {
		t.Fatalf("all phases committed but Done = %v", r.Done)
	}
}

func TestPlanRejectsSigMismatch(t *testing.T) {
	if _, err := Plan(planDisks(t, 1, 1), "other-sig"); err == nil {
		t.Fatal("configuration change accepted")
	} else if !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestPlanRejectsMissingManifest(t *testing.T) {
	disks := planDisks(t, 2, 2)
	disks[1] = diskio.NewMemFS() // node 1 lost its disk
	if _, err := Plan(disks, "test-sig"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing manifest accepted: %v", err)
	}
}

func TestPlanRejectsWrongCluster(t *testing.T) {
	disks := planDisks(t, 2, 2)
	// A 2-node run resumed on 3 nodes.
	disks = append(disks, diskio.NewMemFS())
	if err := Save(disks[2], sampleManifest(2, 3, 2), diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(disks, "test-sig"); err == nil {
		t.Fatal("cluster size change accepted")
	}
}

func TestPlanRejectsSwappedDisks(t *testing.T) {
	disks := planDisks(t, 2, 2)
	disks[0], disks[1] = disks[1], disks[0]
	if _, err := Plan(disks, "test-sig"); err == nil {
		t.Fatal("swapped node disks accepted")
	}
}

func TestPlanRejectsInputMismatch(t *testing.T) {
	disks := planDisks(t, 2, 2)
	m := sampleManifest(1, 2, 2)
	m.Input.Update([]record.Key{42}) // different input on node 1
	if err := Save(disks[1], m, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Plan(disks, "test-sig"); err == nil {
		t.Fatal("diverging input checksums accepted")
	}
}

func TestSaveSurvivesDirFS(t *testing.T) {
	dir := t.TempDir()
	fs, err := diskio.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := sampleManifest(0, 1, 4)
	if err := Save(fs, m, diskio.Accounting{}); err != nil {
		t.Fatal(err)
	}
	// A fresh FS over the same directory (a new process) sees the commit.
	fs2, err := diskio.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(fs2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Phase != 4 {
		t.Fatalf("phase %d after reopen", got.Phase)
	}
}
