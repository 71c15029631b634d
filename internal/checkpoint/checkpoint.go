// Package checkpoint makes Algorithm 1 crash-tolerant: each node
// records its progress through the five phases in a durable manifest on
// its private disk, and a recovery planner turns the surviving manifests
// back into a resume plan after a failure.
//
// A manifest is committed at every phase boundary — the natural
// consistency points of a regular-sampling sort — and records the
// completed phase, the virtual clock at commit, the durable files that
// phase depends on (with their key counts), the broadcast pivots once
// known, and a fingerprint of the sort configuration.  Manifests are
// written with the classic durable-replace protocol: serialise to a
// temporary file, fsync when the filesystem supports it, then atomically
// Rename over the live name.  A SHA-256 checksum over the body detects
// torn or corrupted manifests on load, so a half-written manifest can
// never be mistaken for a commit.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

// ManifestName is the live manifest file on each node's private FS.
const ManifestName = "hetsort.ckpt"

// magic heads every manifest; bump the suffix on incompatible changes.
const magic = "hetsort-checkpoint-v1"

// Version is the manifest schema version written by this package.
const Version = 1

// ErrCorrupt reports a manifest whose checksum or structure does not
// verify — a torn write or disk corruption.  Callers must treat the
// node as having no usable checkpoint.
var ErrCorrupt = errors.New("checkpoint: manifest corrupt")

// Phases is the number of commit points in Algorithm 1.
const Phases = 5

// FileInfo names a durable file a committed phase depends on, with its
// expected length in keys so recovery can detect truncation.
type FileInfo struct {
	Name string `json:"name"`
	Keys int64  `json:"keys"`
}

// Manifest is one node's durable progress record.
type Manifest struct {
	// Version is the manifest schema version.
	Version int `json:"version"`
	// Node and P identify the writer and the cluster size.
	Node int `json:"node"`
	P    int `json:"p"`
	// Phase is the number of completed (committed) phases, 0..Phases.
	Phase int `json:"phase"`
	// Clock is the node's virtual clock at the commit, replayed on
	// resume so recovered runs report honest virtual times.
	Clock float64 `json:"clock"`
	// Sig fingerprints the sort configuration; resume refuses to mix
	// manifests from a differently-parameterised run.
	Sig string `json:"sig"`
	// Input is the global input multiset checksum, identical on every
	// node, so a resumed run can verify its final output.
	Input record.Checksum `json:"input"`
	// Pivots holds the broadcast pivots once Phase >= 2.  Recovery
	// hands them to nodes that died before receiving the broadcast,
	// sparing a re-gather.
	Pivots []record.Key `json:"pivots,omitempty"`
	// Ties, recorded with the pivots, lists the pivots whose cut falls
	// inside their key's run of copies; like the pivots they are the
	// same on every node.
	Ties []Tie `json:"ties,omitempty"`
	// Runs, from phase 1 to 4, lists the sorted runs step 1 left, each a
	// section of one of Files, when it stopped one merge step short; left
	// out, the one run is the sorted file Files[0] whole.
	Runs []diskio.Section `json:"runs,omitempty"`
	// Cuts, recorded at phases 3 and 4, holds per run the P+1 key offsets
	// at which the pivots cut it, run after run: run r's keys
	// Cuts[r·(P+1)+j]..Cuts[r·(P+1)+j+1] are its part of the bucket bound
	// for node j, and exist nowhere else.
	Cuts []int64 `json:"cuts,omitempty"`
	// Files lists the durable files this phase depends on.
	Files []FileInfo `json:"files,omitempty"`
}

// Tie places a pivot's cut inside the run of its key's copies, in the
// total order (key, node, offset): nodes before Node cut after all
// their copies, nodes after it before all of them, and Node after Take
// of its own — copies, or for a sampled pivot sampled copies (extsort's
// cut positions).
type Tie struct {
	Pivot int   `json:"pivot"`
	Node  int   `json:"node"`
	Take  int64 `json:"take"`
}

// Save durably commits m to fs with diskio.ReplaceFile (temp write +
// sync + atomic rename), charging one metadata block write and one seek
// to acct (the cost that makes checkpoint overhead visible in the PDM
// counters).
func Save(fs diskio.FS, m *Manifest, acct diskio.Accounting) error {
	m.Version = Version
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	sum := sha256.Sum256(body)
	err = diskio.ReplaceFile(fs, ManifestName, func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, "%s sha256=%s\n", magic, hex.EncodeToString(sum[:])); err != nil {
			return err
		}
		_, err := w.Write(body)
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint: committing manifest: %w", err)
	}
	// One block write at offset 0 of the manifest file, and the
	// publishing seek (on a D-disk node both land on member disk 0).
	acct.ChargeWrite(0, 1)
	acct.ChargeSeek(0, 1)
	return nil
}

// Load reads and verifies the manifest on fs.  A missing manifest
// surfaces as os.ErrNotExist; a torn or mangled one as ErrCorrupt.
func Load(fs diskio.FS) (*Manifest, error) {
	f, err := fs.Open(ManifestName)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading manifest: %w", err)
	}
	nl := strings.IndexByte(string(raw), '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header", ErrCorrupt)
	}
	header, body := string(raw[:nl]), raw[nl+1:]
	want, ok := strings.CutPrefix(header, magic+" sha256=")
	if !ok {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, header)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != want {
		return nil, fmt.Errorf("%w: checksum mismatch (torn write?)", ErrCorrupt)
	}
	var m Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("checkpoint: manifest version %d, want %d", m.Version, Version)
	}
	return &m, nil
}

// runs returns the manifest's runs: Runs, or the sorted file Files[0]
// whole.
func (m *Manifest) runs() []diskio.Section {
	if len(m.Runs) > 0 || len(m.Files) == 0 {
		return m.Runs
	}
	return []diskio.Section{{Name: m.Files[0].Name, Keys: m.Files[0].Keys}}
}

// validateRuns checks the runs and cuts of a manifest from phase 1 to 4:
// every run is a section of one of its files and, at phases 3 and 4, has
// P+1 cuts ascending from 0 to its length and lies within its file as
// found on fs.
func (m *Manifest) validateRuns(fs diskio.FS) error {
	if m.Phase < 1 || m.Phase > 4 {
		return nil
	}
	runs, ok := m.runs(), true
	for _, run := range runs {
		i := slices.IndexFunc(m.Files, func(f FileInfo) bool { return f.Name == run.Name })
		ok = ok && i >= 0 && run.Off >= 0 && run.Keys >= 0 && run.Off+run.Keys <= m.Files[i].Keys
	}
	if !ok {
		return fmt.Errorf("%w: node %d phase %d: runs %v are not sections of its files", ErrCorrupt, m.Node, m.Phase, runs)
	}
	if m.Phase < 3 {
		return nil
	}
	ok = len(runs) > 0 && len(m.Cuts) == len(runs)*(m.P+1)
	for r := 0; ok && r < len(runs); r++ {
		row := m.Cuts[r*(m.P+1) : (r+1)*(m.P+1)]
		n, err := diskio.CountKeys(fs, runs[r].Name)
		ok = row[0] == 0 && slices.IsSorted(row) && row[m.P] == runs[r].Keys && err == nil && n >= runs[r].Off+runs[r].Keys
	}
	if !ok {
		return fmt.Errorf("%w: node %d phase %d: cuts %v are not %d offsets a run ascending from 0 to the length of a run on disk",
			ErrCorrupt, m.Node, m.Phase, m.Cuts, m.P+1)
	}
	return nil
}

// validateTies checks that every tie names a pivot, a node and a
// non-negative take, in pivot order.
func (m *Manifest) validateTies() error {
	for i, t := range m.Ties {
		if t.Pivot < 0 || t.Pivot >= len(m.Pivots) || t.Node < 0 || t.Node >= m.P || t.Take < 0 ||
			(i > 0 && t.Pivot <= m.Ties[i-1].Pivot) {
			return fmt.Errorf("%w: node %d phase %d: tie %+v does not place one of %d pivots on one of %d nodes",
				ErrCorrupt, m.Node, m.Phase, t, len(m.Pivots), m.P)
		}
	}
	return nil
}

// Validate checks that every file the manifest depends on exists on fs
// with the recorded length, that its runs are sections of those files,
// and that the phase's cuts span every run and its ties place pivots.
// File contents are not read: Machine.Run verifies a resumed run's
// output against the input checksum.
func (m *Manifest) Validate(fs diskio.FS) error {
	if err := m.validateRuns(fs); err != nil {
		return err
	}
	if err := m.validateTies(); err != nil {
		return err
	}
	for _, fi := range m.Files {
		n, err := diskio.CountKeys(fs, fi.Name)
		if err != nil {
			return fmt.Errorf("checkpoint: node %d phase %d dependency %s: %w", m.Node, m.Phase, fi.Name, err)
		}
		if n != fi.Keys {
			return fmt.Errorf("checkpoint: node %d phase %d dependency %s has %d keys, manifest says %d",
				m.Node, m.Phase, fi.Name, n, fi.Keys)
		}
	}
	return nil
}

// Recovery is the cluster-wide resume plan assembled from the per-node
// manifests: what each node has committed, where its clock stood, and
// the globally agreed pivots if any node got far enough to know them.
type Recovery struct {
	// Done[i] is node i's committed phase count (0..Phases).
	Done []int
	// Clocks[i] is node i's virtual clock at its last commit.
	Clocks []float64
	// Pivots are the broadcast pivots, non-nil once any node committed
	// phase 2 (pivot selection is a collective, so one survivor's copy
	// is everyone's copy).
	Pivots []record.Key
	// Ties are the pivots' ties, from the same manifest as Pivots.
	Ties []Tie
	// Input is the global input checksum recorded at the start of the
	// original run.
	Input record.Checksum
	// Runs[i] is node i's sorted runs (nil unless it stands at phase 1
	// to 4) and Cuts[i] its cuts (nil unless at phase 3 or 4); unlike the
	// pivots, every node's runs are cut elsewhere.
	Runs [][]diskio.Section
	Cuts [][]int64
}

// Plan loads, verifies and cross-checks the manifests of all nodes and
// returns the resume plan.  sig must match the fingerprint recorded by
// the interrupted run, so a resume cannot silently change the sort
// parameters mid-flight.
func Plan(disks []diskio.FS, sig string) (*Recovery, error) {
	p := len(disks)
	r := &Recovery{
		Done:   make([]int, p),
		Clocks: make([]float64, p),
		Runs:   make([][]diskio.Section, p),
		Cuts:   make([][]int64, p),
	}
	for i, fs := range disks {
		m, err := Load(fs)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("checkpoint: node %d has no manifest (was the run checkpointed?): %w", i, err)
			}
			return nil, fmt.Errorf("checkpoint: node %d: %w", i, err)
		}
		if m.Node != i {
			return nil, fmt.Errorf("checkpoint: manifest on node %d claims node %d", i, m.Node)
		}
		if m.P != p {
			return nil, fmt.Errorf("checkpoint: node %d manifest is for a %d-node cluster, resuming on %d", i, m.P, p)
		}
		if m.Sig != sig {
			return nil, fmt.Errorf("checkpoint: node %d manifest was written by a different configuration\n  manifest: %s\n  resume:   %s", i, m.Sig, sig)
		}
		if m.Phase < 0 || m.Phase > Phases {
			return nil, fmt.Errorf("checkpoint: node %d manifest has impossible phase %d", i, m.Phase)
		}
		if err := m.Validate(fs); err != nil {
			return nil, err
		}
		if i == 0 {
			r.Input = m.Input
		} else if !m.Input.Equal(r.Input) {
			return nil, fmt.Errorf("checkpoint: node %d input checksum %v disagrees with node 0's %v", i, m.Input, r.Input)
		}
		r.Done[i] = m.Phase
		r.Clocks[i] = m.Clock
		r.Cuts[i] = m.Cuts
		if m.Phase >= 1 && m.Phase <= 4 {
			r.Runs[i] = m.runs()
		}
		if m.Phase >= 2 && r.Pivots == nil {
			r.Pivots = append([]record.Key(nil), m.Pivots...)
			r.Ties = m.Ties
		}
	}
	return r, nil
}
