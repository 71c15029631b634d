package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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
	"hetsort/internal/storage"
	"hetsort/internal/trace"
	"hetsort/internal/vtime"
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
	// Input names the backend object holding the input keys as
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
	// updating the durable status, so the job stays "running" on the
	// backend and the next daemon instance resumes it from its
	// checkpoint manifests.  Zero disables injection; resumed runs
	// never re-arm it.
	CrashNode  int `json:"crash_node,omitempty"`
	CrashPhase int `json:"crash_phase,omitempty"`
}

// inputBytes estimates the input size for admission (0 when unknown —
// validate rejects those specs anyway).
func (sp *JobSpec) inputBytes(store storage.Backend) int64 {
	if sp.Gen != nil {
		return extsort.SatMul(sp.Gen.Count, record.KeySize)
	}
	if sp.Input != "" {
		if n, err := store.Stat(sp.Input); err == nil {
			return n
		}
	}
	return 0
}

func (sp *JobSpec) validate(store storage.Backend, m *MachineConfig) error {
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
		n, err := store.Stat(sp.Input)
		if err != nil {
			return fmt.Errorf("service: input object %s: %w", sp.Input, err)
		}
		if n == 0 || n%record.KeySize != 0 {
			return fmt.Errorf("service: input object %s is %d bytes, not a positive multiple of %d", sp.Input, n, record.KeySize)
		}
	}
	if sp.CrashPhase < 0 || sp.CrashPhase > checkpoint.Phases {
		return fmt.Errorf("service: crash_phase %d out of range 0..%d", sp.CrashPhase, checkpoint.Phases)
	}
	if _, err := extsort.ParseTopology(sp.Topology); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if sp.Radix < 0 {
		return fmt.Errorf("service: radix %d must be non-negative", sp.Radix)
	}
	return nil
}

// topology parses the spec's (already validated) topology name.
func (sp *JobSpec) topology() extsort.Topology {
	t, _ := extsort.ParseTopology(sp.Topology)
	return t
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
	// leaves).  `hetsortd verify` recomputes it from the backend.
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

// Backend object names of a job's artifacts.
func specName(id string) string   { return "jobs/" + id + "/spec.json" }
func statusName(id string) string { return "jobs/" + id + "/status.json" }
func traceName(id string) string  { return "jobs/" + id + "/trace.json" }
func nodePrefix(id string, i int) string {
	return fmt.Sprintf("jobs/%s/node%d", id, i)
}

func saveSpec(store storage.Backend, id string, sp *JobSpec) error {
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
	return store.Put(specName(id), body)
}

func loadSpec(store storage.Backend, id string) (*JobSpec, error) {
	body, err := store.Get(specName(id))
	if err != nil {
		return nil, err
	}
	var sp JobSpec
	if err := json.Unmarshal(body, &sp); err != nil {
		return nil, fmt.Errorf("service: job %s spec: %w", id, err)
	}
	return &sp, nil
}

func saveStatus(store storage.Backend, st *JobStatus) error {
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return store.Put(statusName(st.ID), body)
}

func loadStatus(store storage.Backend, id string) (*JobStatus, error) {
	body, err := store.Get(statusName(id))
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

// loadInput materialises the job's input keys (uploaded object or
// deterministic generation).
func (sp *JobSpec) loadInput(store storage.Backend, parts int) ([]record.Key, error) {
	if sp.Gen != nil {
		dist := sp.Gen.Dist
		if dist == "" {
			dist = "uniform"
		}
		d, err := record.ParseDistribution(dist)
		if err != nil {
			return nil, err
		}
		return d.Generate(int(sp.Gen.Count), sp.Gen.Seed, parts), nil
	}
	body, err := store.Get(sp.Input)
	if err != nil {
		return nil, fmt.Errorf("service: input object %s: %w", sp.Input, err)
	}
	if len(body) == 0 || len(body)%record.KeySize != 0 {
		return nil, fmt.Errorf("service: input object %s is %d bytes, not a positive multiple of %d", sp.Input, len(body), record.KeySize)
	}
	return record.DecodeKeys(nil, body), nil
}

// extsortConfig maps a job onto the shared machine's sort parameters.
func (s *Service) extsortConfig(spec *JobSpec) extsort.Config {
	return extsort.Config{
		Perf:        perf.Vector(s.cfg.Machine.Perf),
		BlockKeys:   s.cfg.Machine.BlockKeys,
		MemoryKeys:  spec.MemoryKeys,
		Tapes:       spec.Tapes,
		MessageKeys: spec.MessageKeys,
		Seed:        spec.Seed,
		Overlap:     spec.Overlap,
		Topology:    spec.topology(),
		Radix:       spec.Radix,
		Checkpoint:  true,
		Merkle:      true,
	}
}

// newJobCluster assembles a tenant's view of the shared machine: the
// machine's perf vector and network, the job's node trees on the
// storage backend, and the service-wide contention hook that stretches
// disk and network charges by the number of running tenants.
func (s *Service) newJobCluster(id string) (*cluster.Cluster, *trace.Log, error) {
	m := s.cfg.Machine
	v := perf.Vector(m.Perf)
	net, err := cluster.NetByName(m.Network)
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	var ferr error
	disks := func(i int) diskio.FS {
		fs, err := s.store.FS(nodePrefix(id, i))
		if err != nil {
			if ferr == nil {
				ferr = err
			}
			return diskio.NewMemFS()
		}
		return fs
	}
	tl := new(trace.Log)
	cl, err := cluster.New(cluster.Config{
		Slowdowns: v.Slowdowns(),
		Net:       net,
		BlockKeys: m.BlockKeys,
		Disks:     disks,
		Contention: func() float64 {
			return float64(s.tenants.Load())
		},
		Trace: tl,
	})
	if err != nil {
		return nil, nil, err
	}
	if ferr != nil {
		return nil, nil, ferr
	}
	return cl, tl, nil
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
		// Stop() interrupted the job: in memory it is failed, on the
		// backend it stays "running" for the next daemon to resume.
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
	cl, tl, err := s.newJobCluster(j.id)
	if err != nil {
		return err
	}
	tr := progress.NewTracker()
	j.statusMu.Lock()
	j.cl = cl
	j.prog = tr
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

	ecfg := s.extsortConfig(&j.spec)
	ecfg.Progress = tr
	var res *extsort.Result
	var want record.Checksum
	if resume {
		res, want, err = extsort.Resume(cl, ecfg, "input", "output")
		if err != nil && errors.Is(err, os.ErrNotExist) {
			// The daemon died before the first commit: no manifests to
			// resume from, but the spec regenerates the input — run
			// fresh.
			s.nResumedFallback.Add(1)
			res, want, err = s.runFresh(cl, j, ecfg)
		} else if err == nil {
			s.nResumed.Add(1)
		}
		if err == nil {
			j.statusMu.Lock()
			j.status.Resumed = true
			j.statusMu.Unlock()
		}
	} else {
		res, want, err = s.runFresh(cl, j, ecfg)
	}
	if err != nil {
		return err
	}
	if err := extsort.VerifyOutput(cl, "output", s.cfg.Machine.BlockKeys, want); err != nil {
		return err
	}
	for i := 0; i < cl.P(); i++ {
		n := cl.Node(i)
		if err := vtime.CheckAttribution(n.Clock(), n.Attribution()); err != nil {
			return fmt.Errorf("service: job %s node %d: %w", j.id, i, err)
		}
	}
	if err := s.saveTrace(j.id, tl); err != nil {
		return err
	}
	root, err := JobRoot(s.store, j.id, cl.P())
	if err != nil {
		return err
	}
	var keys int64
	for _, p := range res.PartitionSizes {
		keys += p
	}
	j.statusMu.Lock()
	j.status.Keys = keys
	j.status.Time = res.Time
	j.status.Partitions = res.PartitionSizes
	j.status.NodeClocks = res.NodeClocks
	j.status.Root = root
	j.statusMu.Unlock()
	return nil
}

// runFresh loads the input, distributes perf-proportional shares onto
// the job's node trees, arms any injected crash, and sorts.
func (s *Service) runFresh(cl *cluster.Cluster, j *job, ecfg extsort.Config) (*extsort.Result, record.Checksum, error) {
	keys, err := j.spec.loadInput(s.store, cl.P())
	if err != nil {
		return nil, record.Checksum{}, err
	}
	want, err := extsort.StageInput(cl, perf.Vector(s.cfg.Machine.Perf), keys, s.cfg.Machine.BlockKeys, "input")
	if err != nil {
		return nil, record.Checksum{}, err
	}
	ecfg.InputSum = want
	if ph := j.spec.CrashPhase; ph >= 1 && ph <= checkpoint.Phases {
		if err := cl.ScheduleCrash(j.spec.CrashNode, -1, extsort.StepNames[ph-1]); err != nil {
			return nil, record.Checksum{}, err
		}
	}
	res, err := extsort.Sort(cl, ecfg, "input", "output")
	if err != nil {
		return nil, record.Checksum{}, err
	}
	return res, want, nil
}

// saveTrace renders the job's event log as Chrome trace_event JSON into
// the backend (outside the Merkle leaf set: a resumed run's trace
// legitimately differs from an uninterrupted one's).
func (s *Service) saveTrace(id string, tl *trace.Log) error {
	var buf jsonBuffer
	if err := trace.WriteChromeTrace(&buf, tl); err != nil {
		return err
	}
	return s.store.Put(traceName(id), buf.b)
}

type jsonBuffer struct{ b []byte }

func (w *jsonBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// JobRoot computes the Merkle root anchoring a completed job: the
// leaves are the job's spec and every node's sorted output, each hashed
// from the backend and bound to its job-relative name.  Deterministic
// artifacts only — the trace is excluded, because a resumed run's trace
// differs from an uninterrupted one's while its outputs must not.
func JobRoot(store storage.Backend, id string, p int) (string, error) {
	names := []string{"spec.json"}
	for i := 0; i < p; i++ {
		names = append(names, fmt.Sprintf("node%d/output", i))
	}
	leaves := make([]merkle.Leaf, 0, len(names))
	for _, n := range names {
		body, err := store.Get("jobs/" + id + "/" + n)
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

// VerifyJob recomputes a completed job's Merkle root from the backend
// and checks the concatenated node outputs are globally sorted — the
// `hetsortd verify` core.  It returns the recomputed root.
func VerifyJob(store storage.Backend, id string) (string, error) {
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
	// Sortedness across the concatenated partitions, in node order.
	var last record.Key
	var total int64
	for i := 0; i < p; i++ {
		body, err := store.Get(fmt.Sprintf("jobs/%s/node%d/output", id, i))
		if err != nil {
			return "", err
		}
		keys := record.DecodeKeys(nil, body)
		for _, k := range keys {
			if total > 0 && k < last {
				return "", fmt.Errorf("service: job %s output not sorted at node %d (key %d after %d)", id, i, k, last)
			}
			last = k
			total++
		}
		if int64(len(keys)) != st.Partitions[i] {
			return "", fmt.Errorf("service: job %s node %d output has %d keys, status says %d", id, i, len(keys), st.Partitions[i])
		}
	}
	if total != st.Keys {
		return "", fmt.Errorf("service: job %s outputs hold %d keys, status says %d", id, total, st.Keys)
	}
	return root, nil
}
