// Package service implements hetsortd: a long-running multi-tenant
// sort service in front of the simulated cluster.  Jobs are submitted
// over HTTP (see http.go), admitted against the machine's memory and
// disk budgets, queued when the machine is saturated, and executed as
// Algorithm-1 runs that genuinely contend for the shared machine — with
// k jobs running, every tenant's disk transfers and link occupancy
// stretch by k (cluster.Config.Contention), so multiprogramming costs
// show up in the virtual times exactly as they would on real shared
// drives.  Contention never touches data: a job's output bytes are
// identical at any multiprogramming level.
//
// Every job's artifacts — spec, per-node working files, checkpoint
// manifests, status, trace — live on a storage.Backend under the prefix
// jobs/<id>/, so the whole service state survives a daemon crash: on
// restart, Recover re-admits every job whose durable status is still
// "queued" or "running", resuming the running ones from their
// checkpoint manifests (extsort.Resume) and falling back to a fresh run
// when a job died before its first commit.  Completed jobs are anchored
// by a Merkle root over their artifact set (spec + sorted outputs);
// `hetsortd verify` recomputes the root from the backend alone.
package service

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hetsort/internal/cluster"
	"hetsort/internal/extsort"
	"hetsort/internal/metrics"
	"hetsort/internal/record"
	"hetsort/internal/storage"
)

// Errors the admission controller returns from Submit; the HTTP layer
// maps them to status codes (429 for backpressure, 422 for budget).
var (
	// ErrQueueFull reports that both the running slots and the wait
	// queue are at capacity — the client should back off and retry.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrBudget reports that the job's memory or disk demand does not
	// fit the machine's remaining budget alongside the admitted jobs.
	ErrBudget = errors.New("service: job exceeds machine budget")
	// ErrClosed reports a submission to a stopped service.
	ErrClosed = errors.New("service: stopped")
)

// MachineConfig describes the one simulated machine all tenants share.
// The perf vector and network are machine properties — jobs choose their
// data and sort parameters, not their hardware.
type MachineConfig struct {
	// Perf is the machine's performance vector (default {1,1,1,1}).
	Perf []int
	// Network is the interconnect name cluster.NetByName resolves
	// (default fast-ethernet).
	Network string
	// BlockKeys is the disk block size B in keys (default 2048).
	BlockKeys int
	// MemoryBytes bounds the summed per-job memory demand
	// (P·MemoryKeys·4 bytes per admitted job).  Default 256 MiB.
	MemoryBytes int64
	// DiskBytes bounds the summed per-job disk demand (4× the input
	// size: input + runs + received + output).  Default 4 GiB.
	DiskBytes int64
}

func (m *MachineConfig) applyDefaults() {
	if len(m.Perf) == 0 {
		m.Perf = []int{1, 1, 1, 1}
	}
	if m.BlockKeys <= 0 {
		m.BlockKeys = 2048
	}
	if m.MemoryBytes <= 0 {
		m.MemoryBytes = 256 << 20
	}
	if m.DiskBytes <= 0 {
		m.DiskBytes = 4 << 30
	}
}

// Config parameterises a Service.
type Config struct {
	// Machine is the shared virtual machine.
	Machine MachineConfig
	// MaxJobs bounds the concurrently running jobs (default 2).
	MaxJobs int
	// MaxQueue bounds the jobs waiting behind the running ones
	// (default 8); a submission past both bounds gets ErrQueueFull.
	MaxQueue int
}

// Service is the hetsortd daemon core: an admission-controlled job
// queue over one shared simulated machine and one storage backend.
type Service struct {
	cfg   Config
	store storage.Backend

	// tenants counts the currently running jobs; every tenant's
	// cluster samples it as the contention factor on each disk and
	// network charge.
	tenants atomic.Int64

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string // submission order, for List
	queue   []*job
	running int
	resMem  int64 // memory bytes reserved by admitted (queued+running) jobs
	resDisk int64 // disk bytes reserved by admitted jobs
	nextID  int
	closed  bool
	wg      sync.WaitGroup

	// Lifetime counters for /metrics.
	nSubmitted, nDone, nFailed, nCanceled  atomic.Int64
	nRejectedQueue, nRejectedBudget        atomic.Int64
	nRecovered, nResumed, nResumedFallback atomic.Int64

	// jobVsec observes every completed job's virtual makespan; /metrics
	// exposes it as a Prometheus histogram (the bucket-exposition path).
	jobVsec metrics.Histogram
}

// New builds a service over the given backend and recovers every job
// the backend says was queued or in flight when the previous daemon
// died (see Recover).
func New(cfg Config, store storage.Backend) (*Service, error) {
	cfg.Machine.applyDefaults()
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8
	}
	s := &Service{cfg: cfg, store: store, jobs: make(map[string]*job), nextID: 1}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Store returns the service's storage backend.
func (s *Service) Store() storage.Backend { return s.store }

// jobByID returns the in-memory job handle, if the id is known.
func (s *Service) jobByID(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// runningJobs returns the handles of currently running jobs in
// submission order (for the per-job /metrics series — bounded by
// MaxJobs, so the label cardinality stays small).
func (s *Service) runningJobs() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && j.State() == StateRunning {
			out = append(out, j)
		}
	}
	return out
}

// Machine returns the shared machine configuration.
func (s *Service) Machine() MachineConfig { return s.cfg.Machine }

// recover scans the backend for jobs a previous daemon left behind and
// re-admits them: durable state "queued" restarts fresh, "running"
// resumes from the job's checkpoint manifests.  Job IDs continue after
// the highest recovered one.
func (s *Service) recover() error {
	names, err := s.store.List("jobs/")
	if err != nil {
		return fmt.Errorf("service: scanning backend: %w", err)
	}
	var ids []string
	seen := make(map[string]bool)
	for _, n := range names {
		rest, ok := strings.CutPrefix(n, "jobs/")
		if !ok {
			continue
		}
		id, _, ok := strings.Cut(rest, "/")
		if ok && !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if num, ok := strings.CutPrefix(id, "job-"); ok {
			if v, err := strconv.Atoi(num); err == nil && v >= s.nextID {
				s.nextID = v + 1
			}
		}
		st, err := loadStatus(s.store, id)
		if err != nil {
			continue // no durable status yet: the job never started
		}
		j := &job{id: id, status: *st, done: make(chan struct{})}
		if spec, err := loadSpec(s.store, id); err == nil {
			j.spec = *spec
		}
		j.memBytes, j.diskBytes = s.demand(&j.spec)
		switch st.State {
		case StateQueued:
			s.adopt(j, false)
		case StateRunning:
			// The daemon died mid-job; the checkpoint manifests on the
			// job's node trees are the resume point.
			s.adopt(j, true)
			s.nRecovered.Add(1)
		default:
			// Terminal states just become visible again.
			close(j.done)
			s.jobs[id] = j
			s.order = append(s.order, id)
		}
	}
	return nil
}

// adopt re-admits a recovered job (lock not required: only called from
// recover, before the service is shared).
func (s *Service) adopt(j *job, resume bool) {
	j.resume = resume
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.resMem += j.memBytes
	s.resDisk += j.diskBytes
	if s.running < s.cfg.MaxJobs {
		s.running++
		s.start(j)
	} else {
		j.status.State = StateQueued
		s.queue = append(s.queue, j)
	}
}

// demand estimates a job's machine footprint for admission: memory is
// each node's sort workspace plus the topology's resident link-buffer
// footprint — every node buffers up to its peak redistribution fan-in
// of in-flight messages, p per node for the flat all-to-all versus
// O(r) for tree/grid, so a flat job at large p or message size is
// rejected with 422 here instead of OOM-ing the host mid-run — and
// disk is 4× the input (input + initial runs + received segments +
// output).  Products saturate at MaxInt64 so an absurd spec reads as
// an infinite demand, not an overflowed small (or negative) one that
// slips past the budget check.
func (s *Service) demand(spec *JobSpec) (mem, disk int64) {
	p := len(s.cfg.Machine.Perf)
	mk := spec.MemoryKeys
	if mk <= 0 {
		mk = 1 << 16
	}
	mem = extsort.SatMul(extsort.SatMul(int64(p), int64(mk)), record.KeySize)
	links := extsort.Config{
		MessageKeys: spec.MessageKeys,
		Topology:    spec.topology(),
		Radix:       spec.Radix,
	}.LinkMemoryBytes(p)
	if mem += links; mem < 0 {
		mem = math.MaxInt64 // saturate the sum like the products
	}
	disk = extsort.SatMul(4, spec.inputBytes(s.store))
	return mem, disk
}

// Submit validates and admits a job, returning its ID.  The job starts
// immediately when a running slot is free, otherwise waits in the
// queue; ErrQueueFull and ErrBudget reject it outright.
func (s *Service) Submit(spec JobSpec) (string, error) {
	if err := spec.validate(s.store, &s.cfg.Machine); err != nil {
		if errors.Is(err, ErrBudget) {
			s.nRejectedBudget.Add(1)
		}
		return "", err
	}
	mem, disk := s.demand(&spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if s.running+len(s.queue) >= s.cfg.MaxJobs+s.cfg.MaxQueue {
		s.nRejectedQueue.Add(1)
		return "", ErrQueueFull
	}
	// Compare against the remaining headroom (never negative: resMem and
	// resDisk only hold admitted demands) so a saturated demand cannot
	// overflow the sum back into range.
	if mem > s.cfg.Machine.MemoryBytes-s.resMem || disk > s.cfg.Machine.DiskBytes-s.resDisk {
		s.nRejectedBudget.Add(1)
		return "", fmt.Errorf("%w: needs %d B memory / %d B disk, %d / %d available", ErrBudget,
			mem, disk, s.cfg.Machine.MemoryBytes-s.resMem, s.cfg.Machine.DiskBytes-s.resDisk)
	}
	id := fmt.Sprintf("job-%04d", s.nextID)
	s.nextID++
	j := &job{
		id:        id,
		spec:      spec,
		status:    JobStatus{ID: id, State: StateQueued},
		memBytes:  mem,
		diskBytes: disk,
		done:      make(chan struct{}),
	}
	// Durably record the job before acknowledging it, so a submission
	// the client saw accepted is never lost to a daemon crash.
	if err := saveSpec(s.store, id, &spec); err != nil {
		return "", err
	}
	if err := saveStatus(s.store, &j.status); err != nil {
		return "", err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.resMem += mem
	s.resDisk += disk
	s.nSubmitted.Add(1)
	if s.running < s.cfg.MaxJobs {
		s.running++
		s.start(j)
	} else {
		s.queue = append(s.queue, j)
	}
	return id, nil
}

// start launches j's executor goroutine.  Caller holds s.mu (or has
// exclusive access during recovery).
func (s *Service) start(j *job) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.tenants.Add(1)
		s.execute(j)
		s.tenants.Add(-1)
		// Settle the accounting before Wait returns, so a client that
		// reads the counters right after sees the job finished.
		s.finish(j)
		close(j.done)
	}()
}

// finish releases j's reservations and promotes the next queued job.
func (s *Service) finish(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resMem -= j.memBytes
	s.resDisk -= j.diskBytes
	s.running--
	switch j.State() {
	case StateDone:
		s.nDone.Add(1)
		s.jobVsec.Observe(j.Status().Time)
	case StateCanceled:
		s.nCanceled.Add(1)
	default:
		s.nFailed.Add(1)
	}
	if s.closed || len(s.queue) == 0 {
		return
	}
	next := s.queue[0]
	s.queue = s.queue[1:]
	s.running++
	s.start(next)
}

// Cancel aborts the named job: a queued job is dequeued immediately, a
// running one is interrupted (its nodes notice at their next blocking
// receive).  Terminal jobs are left alone.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: no job %s", id)
	}
	// Queue membership, not the status string, decides whether the job
	// has an executor goroutine: finish() dequeues a promoted job before
	// its goroutine flips the state to running, so a job can read as
	// "queued" while an executor owns it — closing done here for such a
	// job would collide with the executor's own close.
	dequeued := false
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.resMem -= j.memBytes
			s.resDisk -= j.diskBytes
			dequeued = true
			break
		}
	}
	j.statusMu.Lock()
	state := j.status.State
	if state == StateQueued || state == StateRunning {
		j.canceled = true
	}
	cl := j.cl
	j.statusMu.Unlock()
	if dequeued {
		j.setState(StateCanceled, "canceled while queued")
		saveStatus(s.store, j.Status())
		s.nCanceled.Add(1)
		close(j.done)
	}
	s.mu.Unlock()
	// For jobs an executor owns the Interrupt is best-effort (it only
	// lands while the cluster is inside Run); run() and execute() also
	// check j.canceled directly, so a cancel the interrupt misses is
	// still honored.
	if !dequeued && cl != nil {
		cl.Interrupt()
	}
	return nil
}

// Status returns a copy of the named job's status.
func (s *Service) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: no job %s", id)
	}
	st := *j.Status()
	return &st, nil
}

// List returns every known job's status in submission order.
func (s *Service) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.jobs[id].Status())
	}
	return out
}

// Wait blocks until the named job reaches a terminal state.
func (s *Service) Wait(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("service: no job %s", id)
	}
	<-j.done
	return nil
}

// Stop refuses new work, interrupts the running jobs and waits for
// their executors to return.  Interrupted jobs keep durable state
// "running", so the next daemon resumes them — Stop is a crash the
// service shuts down politely through.
func (s *Service) Stop() {
	s.mu.Lock()
	s.closed = true
	// Still-queued jobs have no executor goroutine to close their done
	// channel: drain the queue and close them here so Wait returns.
	// Durable status stays "queued" — the next daemon re-admits them.
	queued := s.queue
	s.queue = nil
	for _, j := range queued {
		s.resMem -= j.memBytes
		s.resDisk -= j.diskBytes
	}
	var running []*cluster.Cluster
	for _, j := range s.jobs {
		j.statusMu.Lock()
		if j.status.State == StateRunning && j.cl != nil {
			j.stopping = true
			running = append(running, j.cl)
		}
		j.statusMu.Unlock()
	}
	s.mu.Unlock()
	for _, j := range queued {
		close(j.done)
	}
	for _, cl := range running {
		cl.Interrupt()
	}
	s.wg.Wait()
}

// Tenants returns the number of currently running jobs (the contention
// factor co-tenants observe).
func (s *Service) Tenants() int64 { return s.tenants.Load() }
