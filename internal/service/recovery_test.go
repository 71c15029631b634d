package service

import (
	"bytes"
	"fmt"
	"testing"

	"hetsort/internal/storage"
)

// readOutputs concatenates a job's node outputs from the backend.
func readOutputs(t *testing.T, store storage.Backend, id string, p int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < p; i++ {
		body, err := store.Get(fmt.Sprintf("jobs/%s/node%d/output", id, i))
		if err != nil {
			t.Fatalf("output of %s node %d: %v", id, i, err)
		}
		buf.Write(body)
	}
	return buf.Bytes()
}

// zeroOutput overwrites node 0's output of job id with as many zero
// keys: still sorted, still the recorded length, another multiset.
func zeroOutput(t *testing.T, store storage.Backend, id string) {
	t.Helper()
	name := "jobs/" + id + "/node0/output"
	body, err := store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(name, make([]byte, len(body))); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonKillAndRecovery is the acceptance scenario: a job dies
// mid-run (injected node crash = the daemon-death model: the durable
// status stays "running"), a fresh Service over the same backend
// resumes it from its checkpoint manifests, and the resumed job's
// output bytes and Merkle root equal an uninterrupted run's.
func TestDaemonKillAndRecovery(t *testing.T) {
	for phase := 1; phase <= 5; phase++ {
		t.Run(fmt.Sprintf("crash-after-phase-%d", phase), func(t *testing.T) {
			spec := testSpec(4000, 11)

			// Reference: the same job, uninterrupted, on its own backend.
			refStore := storage.NewObject()
			ref, err := New(testConfig(), refStore)
			if err != nil {
				t.Fatal(err)
			}
			refID, err := ref.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ref.Wait(refID)
			refSt, _ := ref.Status(refID)
			if refSt.State != StateDone {
				t.Fatalf("reference job: %s (%s)", refSt.State, refSt.Error)
			}
			ref.Stop()

			// Victim: same spec with an injected node death after the
			// given phase.
			store := storage.NewObject()
			s1, err := New(testConfig(), store)
			if err != nil {
				t.Fatal(err)
			}
			crashed := spec
			crashed.CrashNode = 2
			crashed.CrashPhase = phase
			id, err := s1.Submit(crashed)
			if err != nil {
				t.Fatal(err)
			}
			s1.Wait(id)
			if st, _ := s1.Status(id); st.State != StateFailed {
				t.Fatalf("crashed job in memory: %s", st.State)
			}
			// The daemon "died": durably the job is still running.
			if st, err := loadStatus(store, id); err != nil || st.State != StateRunning {
				t.Fatalf("durable state: %+v, %v", st, err)
			}
			s1.Stop()

			// Restart: a new service over the same backend must resume
			// the job to completion.
			s2, err := New(testConfig(), store)
			if err != nil {
				t.Fatal(err)
			}
			if err := s2.Wait(id); err != nil {
				t.Fatal(err)
			}
			st, _ := s2.Status(id)
			if st.State != StateDone {
				t.Fatalf("recovered job: %s (%s)", st.State, st.Error)
			}
			if !st.Resumed {
				t.Fatal("recovered job not marked resumed")
			}
			s2.Stop()

			// Byte-identical outputs and equal Merkle roots.
			p := len(testConfig().Machine.Perf)
			if !bytes.Equal(readOutputs(t, store, id, p), readOutputs(t, refStore, refID, p)) {
				t.Fatal("resumed output bytes differ from uninterrupted run")
			}
			if st.Root != refSt.Root {
				t.Fatalf("resumed root %s != uninterrupted root %s", st.Root, refSt.Root)
			}
			if _, err := VerifyJob(store, id); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoveryQueuedJob: a job that never started (durably "queued")
// restarts fresh on the next daemon.
func TestRecoveryQueuedJob(t *testing.T) {
	store := storage.NewObject()
	// Fabricate the durable state of a queued job (as a crashed daemon
	// would leave it: spec + queued status, no node trees).
	spec := testSpec(2000, 3)
	if err := saveSpec(store, "job-0007", &spec); err != nil {
		t.Fatal(err)
	}
	if err := saveStatus(store, &JobStatus{ID: "job-0007", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	s, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait("job-0007"); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status("job-0007")
	if st.State != StateDone {
		t.Fatalf("recovered queued job: %s (%s)", st.State, st.Error)
	}
	if st.Resumed {
		t.Fatal("fresh restart wrongly marked resumed")
	}
	// New submissions continue the ID sequence past the recovered one.
	id, err := s.Submit(testSpec(2000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-0008" {
		t.Fatalf("next id %s, want job-0008", id)
	}
	s.Wait(id)
	s.Stop()
}

// TestRecoveryBeforeFirstCommit: the daemon died after marking the job
// running but before any node committed a manifest — resume has nothing
// to plan from and must fall back to a fresh run.
func TestRecoveryBeforeFirstCommit(t *testing.T) {
	store := storage.NewObject()
	spec := testSpec(2000, 5)
	if err := saveSpec(store, "job-0001", &spec); err != nil {
		t.Fatal(err)
	}
	if err := saveStatus(store, &JobStatus{ID: "job-0001", State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	s, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait("job-0001"); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status("job-0001")
	if st.State != StateDone {
		t.Fatalf("fallback job: %s (%s)", st.State, st.Error)
	}
	if s.nResumedFallback.Load() != 1 {
		t.Fatalf("fallback counter %d", s.nResumedFallback.Load())
	}
	if _, err := VerifyJob(store, "job-0001"); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

// TestRecoveryRefusesCorruptedOutput: the daemon died after every node
// committed phase 5 but before the job's status reached "done", and a
// node output was then corrupted in place (same length, sorted, another
// multiset).  The restarted daemon resumes the job from its manifests,
// and the output check against their input checksum fails it: the job
// ends "failed", in memory and durably, and is never "done".
func TestRecoveryRefusesCorruptedOutput(t *testing.T) {
	store := storage.NewObject()
	s1, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(testSpec(4000, 11))
	if err != nil {
		t.Fatal(err)
	}
	s1.Wait(id)
	s1.Stop()
	st, err := loadStatus(store, id)
	if err != nil || st.State != StateDone {
		t.Fatalf("reference run: %+v, %v", st, err)
	}
	if err := saveStatus(store, &JobStatus{ID: id, State: StateRunning}); err != nil {
		t.Fatal(err)
	}
	zeroOutput(t, store, id)

	s2, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	s2.Wait(id)
	s2.Stop()
	if st, _ := s2.Status(id); st.State != StateFailed {
		t.Fatalf("recovered job with a corrupted output: %s (%s)", st.State, st.Error)
	}
	if st, err := loadStatus(store, id); err != nil || st.State != StateFailed {
		t.Fatalf("durable state: %+v, %v", st, err)
	}
}
