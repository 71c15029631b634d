package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"hetsort/internal/checkpoint"
	"hetsort/internal/cluster"
	"hetsort/internal/diskio"
	"hetsort/internal/extsort"
	"hetsort/internal/merkle"
	"hetsort/internal/perf"
	"hetsort/internal/progress"
	"hetsort/internal/record"
	"hetsort/internal/trace"
)

// Job states, as persisted in status.json.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// GenSpec asks the service to generate the job's input instead of
// reading an uploaded object — the self-contained mode used by tests
// and smoke runs.  Generation is deterministic in (Count, Dist, Seed).
type GenSpec struct {
	Count int64  `json:"count"`
	Dist  string `json:"dist"` // record distribution name (default uniform)
	Seed  int64  `json:"seed"`
}

// JobSpec is a sort-job submission.  The machine (perf vector, network)
// is the service's; the spec chooses the data and sort parameters.
type JobSpec struct {
	// Input names the store object holding the input keys as
	// little-endian uint32 bytes (uploaded via PUT /objects/...).
	// Exactly one of Input and Gen must be set.
	Input string `json:"input,omitempty"`
	// Gen generates the input instead.
	Gen *GenSpec `json:"gen,omitempty"`

	// Sort parameters (zero = extsort defaults).
	MemoryKeys  int   `json:"memory_keys,omitempty"`
	Tapes       int   `json:"tapes,omitempty"`
	MessageKeys int   `json:"message_keys,omitempty"`
	Overlap     bool  `json:"overlap,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
	// Topology selects the redistribution structure ("flat", "tree" or
	// "grid"; empty = flat) and Radix the tree fan-in.  Besides changing
	// the job's communication pattern, the topology changes its
	// admission footprint: the flat all-to-all pins O(p²) link-buffer
	// memory, which demand() charges against the machine budget — an
	// over-subscribed flat job is rejected with 422 where the tree
	// variant of the same spec fits.
	Topology string `json:"topology,omitempty"`
	Radix    int    `json:"radix,omitempty"`

	// CrashNode/CrashPhase inject a node death at the end of phase
	// CrashPhase (1..5) on fresh runs — the test hook that models the
	// daemon dying mid-job: the injected crash aborts the run without
	// updating the durable status, so the job stays "running" in the
	// store and the next daemon instance resumes it from its
	// checkpoint manifests.  Zero disables injection; resumed runs
	// never re-arm it.
	CrashNode  int `json:"crash_node,omitempty"`
	CrashPhase int `json:"crash_phase,omitempty"`
}

// inputBytes estimates the input size for admission (0 when unknown —
// validate rejects those specs anyway).
func (sp *JobSpec) inputBytes(store diskio.FS) int64 {
	if sp.Gen != nil {
		return extsort.SatMul(sp.Gen.Count, record.KeySize)
	}
	if sp.Input != "" {
		if n, err := objectSize(store, sp.Input); err == nil {
			return n
		}
	}
	return 0
}

func (sp *JobSpec) validate(store diskio.FS, m *MachineConfig) error {
	switch {
	case sp.Input == "" && sp.Gen == nil:
		return errors.New("service: spec needs input or gen")
	case sp.Input != "" && sp.Gen != nil:
		return errors.New("service: spec has both input and gen")
	case sp.Gen != nil:
		if sp.Gen.Count <= 0 {
			return errors.New("service: gen.count must be positive")
		}
		// Bound the count before anything multiplies by it or allocates
		// for it: a job needs 4·count·KeySize disk, so counts past the
		// machine's whole disk budget can never be admitted — reject
		// them here instead of risking an overflowed demand estimate or
		// an astronomical generation allocation later.
		if maxKeys := m.DiskBytes / (4 * record.KeySize); sp.Gen.Count > maxKeys {
			return fmt.Errorf("%w: gen.count %d exceeds the machine's capacity of %d keys", ErrBudget, sp.Gen.Count, maxKeys)
		}
		if sp.Gen.Dist != "" {
			if _, err := record.ParseDistribution(sp.Gen.Dist); err != nil {
				return fmt.Errorf("service: %w", err)
			}
		}
	default:
		if err := validName(sp.Input); err != nil {
			return err
		}
		n, err := objectSize(store, sp.Input)
		if err != nil {
			return fmt.Errorf("service: input object %s: %w", sp.Input, err)
		}
		if n == 0 || n%record.KeySize != 0 {
			return fmt.Errorf("service: input object %s is %d bytes, not a positive multiple of %d", sp.Input, n, record.KeySize)
		}
	}
	return nil
}

// JobStatus is the durable and API-visible record of one job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Keys is the input size; Time the virtual makespan; Partitions
	// the final per-node key counts — all set when the job completes.
	Keys       int64     `json:"keys,omitempty"`
	Time       float64   `json:"time,omitempty"`
	Partitions []int64   `json:"partitions,omitempty"`
	NodeClocks []float64 `json:"node_clocks,omitempty"`
	// Root is the hex Merkle root anchoring the job's artifact set
	// (spec.json and every node's sorted output, names bound into the
	// leaves).  `hetsortd verify` recomputes it from the store.
	Root string `json:"root,omitempty"`
	// Resumed marks a job that was recovered from checkpoints by a
	// restarted daemon.
	Resumed bool `json:"resumed,omitempty"`
}

// job is the in-memory handle around a JobStatus.
type job struct {
	id   string
	spec JobSpec

	statusMu sync.Mutex
	status   JobStatus
	cl       *cluster.Cluster  // non-nil while running
	prog     *progress.Tracker // live sampling handle, set when the run starts
	canceled bool              // Cancel was called
	stopping bool              // Stop interrupted it (keep durable "running")
	resume   bool              // recovered job: resume from checkpoints

	memBytes, diskBytes int64
	done                chan struct{}
}

func (j *job) Status() *JobStatus {
	j.statusMu.Lock()
	defer j.statusMu.Unlock()
	st := j.status
	return &st
}

func (j *job) State() string {
	j.statusMu.Lock()
	defer j.statusMu.Unlock()
	return j.status.State
}

// tracker returns the job's progress tracker: nil before the run
// starts, and the settled final state after it ends (the tracker stays
// sampleable once set, so a late GET /jobs/{id}/progress still sees the
// completed totals).
func (j *job) tracker() *progress.Tracker {
	j.statusMu.Lock()
	defer j.statusMu.Unlock()
	return j.prog
}

func (j *job) setState(state, errMsg string) {
	j.statusMu.Lock()
	j.status.State = state
	j.status.Error = errMsg
	j.statusMu.Unlock()
}

// Store object names of a job's artifacts.
func specName(id string) string   { return "jobs/" + id + "/spec.json" }
func statusName(id string) string { return "jobs/" + id + "/status.json" }
func traceName(id string) string  { return "jobs/" + id + "/trace.json" }
func nodePrefix(id string, i int) string {
	return fmt.Sprintf("jobs/%s/node%d", id, i)
}

// validName refuses an object name that is not a clean, non-empty,
// slash-separated relative path, so no name a client sends reaches
// outside the tree it names (inputs/../jobs/x, say).
func validName(name string) error {
	if name == "." || !fs.ValidPath(name) {
		return fmt.Errorf("service: invalid object name %q", name)
	}
	return nil
}

// readObject returns the content of the named object.
func readObject(store diskio.FS, name string) ([]byte, error) {
	f, err := store.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// objectSize returns the size of the named object in bytes.
func objectSize(store diskio.FS, name string) (int64, error) {
	f, err := store.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return f.Seek(0, io.SeekEnd)
}

// writeObject atomically replaces the named object with data.
func writeObject(store diskio.FS, name string, data []byte) error {
	return diskio.ReplaceFile(store, name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func saveSpec(store diskio.FS, id string, sp *JobSpec) error {
	// The crash injection models the daemon dying, not the job itself:
	// it is scrubbed from the durable spec so (a) a recovered job does
	// not re-arm its own death and loop forever, and (b) a crashed-and-
	// resumed job's spec.json — a Merkle leaf — stays byte-identical to
	// an uninterrupted run's.
	scrubbed := *sp
	scrubbed.CrashNode = 0
	scrubbed.CrashPhase = 0
	body, err := json.Marshal(&scrubbed)
	if err != nil {
		return err
	}
	return writeObject(store, specName(id), body)
}

func loadSpec(store diskio.FS, id string) (*JobSpec, error) {
	body, err := readObject(store, specName(id))
	if err != nil {
		return nil, err
	}
	var sp JobSpec
	if err := json.Unmarshal(body, &sp); err != nil {
		return nil, fmt.Errorf("service: job %s spec: %w", id, err)
	}
	return &sp, nil
}

func saveStatus(store diskio.FS, st *JobStatus) error {
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return writeObject(store, statusName(st.ID), body)
}

func loadStatus(store diskio.FS, id string) (*JobStatus, error) {
	body, err := readObject(store, statusName(id))
	if err != nil {
		return nil, err
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("service: job %s status: %w", id, err)
	}
	st.ID = id
	return &st, nil
}

// loadInput reads the job's uploaded input keys.
func (sp *JobSpec) loadInput(store diskio.FS) ([]record.Key, error) {
	body, err := readObject(store, sp.Input)
	if err != nil {
		return nil, fmt.Errorf("service: input object %s: %w", sp.Input, err)
	}
	if len(body) == 0 || len(body)%record.KeySize != 0 {
		return nil, fmt.Errorf("service: input object %s is %d bytes, not a positive multiple of %d", sp.Input, len(body), record.KeySize)
	}
	return record.DecodeKeys(nil, body), nil
}

// machine resolves a job's run on the shared machine: the machine's
// perf vector, network and B, and the job's sort parameters and crash.
// Every job is priced as if it had the machine to itself.
func (s *Service) machine(sp *JobSpec) (*extsort.Machine, error) {
	topo, err := extsort.ParseTopology(sp.Topology)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	m := &extsort.Machine{
		Config: extsort.Config{
			Perf:        perf.Vector(s.cfg.Machine.Perf),
			BlockKeys:   s.cfg.Machine.BlockKeys,
			MemoryKeys:  sp.MemoryKeys,
			Tapes:       sp.Tapes,
			MessageKeys: sp.MessageKeys,
			Seed:        sp.Seed,
			Overlap:     sp.Overlap,
			Topology:    topo,
			Radix:       sp.Radix,
			Checkpoint:  true,
		},
		Net:        s.net,
		CrashPhase: sp.CrashPhase,
		CrashNode:  sp.CrashNode,
	}
	if err := m.Resolve(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return m, nil
}

// execute runs one job to a terminal state.  Crash-injected failures
// (the daemon-death model) leave the durable status "running" so a
// restarted service resumes the job; every other outcome is persisted.
func (s *Service) execute(j *job) {
	err := s.run(j)
	j.statusMu.Lock()
	j.cl = nil
	switch {
	case err == nil && !j.canceled:
		j.status.State = StateDone
		j.status.Error = ""
	case err == nil:
		// The cancel was acknowledged but its interrupt landed too late
		// (or before the cluster entered Run, where Interrupt is a
		// no-op) and the run completed anyway; honor the
		// acknowledgement over the result.
		j.status.State = StateCanceled
		j.status.Error = "canceled"
	case j.stopping && !j.canceled:
		// Stop() interrupted the job: in memory it is failed, in the
		// store it stays "running" for the next daemon to resume.
		j.status.State = StateFailed
		j.status.Error = err.Error()
		j.statusMu.Unlock()
		return
	case j.canceled:
		j.status.State = StateCanceled
		j.status.Error = err.Error()
	case cluster.IsCrash(err):
		// Injected node death — the daemon-kill model.  Durable state
		// stays "running"; recovery resumes from the manifests.
		j.status.State = StateFailed
		j.status.Error = err.Error()
		j.statusMu.Unlock()
		return
	default:
		j.status.State = StateFailed
		j.status.Error = err.Error()
	}
	st := j.status
	j.statusMu.Unlock()
	saveStatus(s.store, &st)
}

func (s *Service) run(j *job) error {
	m, err := s.machine(&j.spec)
	if err != nil {
		return err
	}
	m.Trace, m.Progress = new(trace.Log), progress.NewTracker()
	m.Disks = func(i int) (diskio.FS, error) { return diskio.Sub(s.store, nodePrefix(j.id, i)) }
	cl, err := m.Build()
	if err != nil {
		return err
	}
	j.statusMu.Lock()
	j.cl = cl
	j.prog = m.Progress
	j.status.State = StateRunning
	resume := j.resume
	canceled := j.canceled
	st := j.status
	j.statusMu.Unlock()
	// A cancel that arrived before j.cl was installed had no cluster to
	// interrupt — and one that arrives before the sort enters
	// cluster.Run is a no-op there too.  Don't start work the tenant
	// already abandoned.
	if canceled {
		return errors.New("service: canceled before start")
	}
	if err := saveStatus(s.store, &st); err != nil {
		return err
	}

	var res *extsort.Report
	if resume {
		res, err = m.Run(cl, nil, true)
		if errors.Is(err, os.ErrNotExist) {
			// The daemon died before the first commit: no manifests to
			// resume from, but the spec regenerates the input — run
			// fresh.
			s.nResumedFallback.Add(1)
			res, err = s.runFresh(cl, j, m)
		} else if err == nil {
			s.nResumed.Add(1)
		}
	} else {
		res, err = s.runFresh(cl, j, m)
	}
	if err != nil {
		return err
	}
	if err := s.saveTrace(j.id, m.Trace); err != nil {
		return err
	}
	root, err := JobRoot(s.store, j.id, cl.P())
	if err != nil {
		return err
	}
	j.statusMu.Lock()
	j.status.Keys = m.InputSum.Count // Run verified the output against it
	j.status.Time = res.Time
	j.status.Partitions = res.PartitionSizes
	j.status.NodeClocks = res.NodeClocks
	j.status.Root = root
	j.status.Resumed = resume
	j.statusMu.Unlock()
	return nil
}

// runFresh stages the job's input — generated, or the uploaded object —
// as perf-proportional shares on the job's node trees, and sorts.
func (s *Service) runFresh(cl *cluster.Cluster, j *job, m *extsort.Machine) (*extsort.Report, error) {
	var err error
	if g := j.spec.Gen; g != nil {
		var dist record.Distribution
		if dist, err = record.ParseDistribution(cmp.Or(g.Dist, "uniform")); err == nil {
			m.InputSum, err = extsort.DistributeInput(cl, m.Perf, dist, g.Count, g.Seed, m.BlockKeys, "input")
		}
	} else {
		var keys []record.Key
		if keys, err = j.spec.loadInput(s.store); err == nil {
			m.InputSum, err = extsort.StageInput(cl, m.Perf, keys, m.BlockKeys, "input")
		}
	}
	if err != nil {
		return nil, err
	}
	return m.Run(cl, nil, false)
}

// saveTrace renders the job's event log as Chrome trace_event JSON into
// the store (outside the Merkle leaf set: a resumed run's trace
// legitimately differs from an uninterrupted one's).
func (s *Service) saveTrace(id string, tl *trace.Log) error {
	return diskio.ReplaceFile(s.store, traceName(id), func(w io.Writer) error {
		return trace.WriteChromeTrace(w, tl)
	})
}

// JobRoot computes the Merkle root anchoring a completed job: the
// leaves are the job's spec and every node's sorted output, each hashed
// from the store and bound to its job-relative name.  Deterministic
// artifacts only — the trace is excluded, because a resumed run's trace
// differs from an uninterrupted one's while its outputs must not.
func JobRoot(store diskio.FS, id string, p int) (string, error) {
	names := []string{"spec.json"}
	for i := 0; i < p; i++ {
		names = append(names, fmt.Sprintf("node%d/output", i))
	}
	leaves := make([]merkle.Leaf, 0, len(names))
	for _, n := range names {
		body, err := readObject(store, "jobs/"+id+"/"+n)
		if err != nil {
			return "", fmt.Errorf("service: job %s artifact %s: %w", id, n, err)
		}
		leaves = append(leaves, merkle.Leaf{Name: n, Sum: sha256.Sum256(body)})
	}
	t, err := merkle.New(leaves)
	if err != nil {
		return "", err
	}
	root := t.Root()
	return hex.EncodeToString(root[:]), nil
}

// VerifyJob recomputes a completed job's Merkle root from the store
// and checks its node outputs with extsort.VerifyOutput — each sorted,
// in order across nodes, and together the input multiset recorded in
// node 0's checkpoint manifest — the `hetsortd verify` core.  It returns
// the recomputed root.
func VerifyJob(store diskio.FS, id string) (string, error) {
	st, err := loadStatus(store, id)
	if err != nil {
		return "", err
	}
	if st.State != StateDone {
		return "", fmt.Errorf("service: job %s is %s, not done", id, st.State)
	}
	if st.Root == "" {
		return "", fmt.Errorf("service: job %s has no recorded root", id)
	}
	p := len(st.Partitions)
	root, err := JobRoot(store, id, p)
	if err != nil {
		return "", err
	}
	if root != st.Root {
		return "", fmt.Errorf("service: job %s root mismatch: recomputed %s, recorded %s", id, root, st.Root)
	}
	disks, loads := make([]diskio.FS, p), make([]float64, p)
	for i := range disks {
		loads[i] = 1
		if disks[i], err = diskio.Sub(store, nodePrefix(id, i)); err != nil {
			return "", err
		}
		n, err := diskio.CountKeys(disks[i], "output")
		if err == nil && n != st.Partitions[i] {
			err = fmt.Errorf("has %d keys, status says %d", n, st.Partitions[i])
		}
		if err != nil {
			return "", fmt.Errorf("service: job %s node %d output: %w", id, i, err)
		}
	}
	m, err := checkpoint.Load(disks[0])
	if err == nil && m.Input.Count != st.Keys {
		err = fmt.Errorf("input holds %d keys, status says %d", m.Input.Count, st.Keys)
	}
	if err != nil {
		return "", fmt.Errorf("service: job %s node 0 manifest: %w", id, err)
	}
	cl, err := cluster.New(cluster.Config{Slowdowns: loads, Disks: func(i int) diskio.FS { return disks[i] }})
	if err == nil {
		err = extsort.VerifyOutput(cl, "output", 2048, m.Input) // any B reads the same keys
	}
	if err != nil {
		return "", fmt.Errorf("service: job %s: %w", id, err)
	}
	return root, nil
}
