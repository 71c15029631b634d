package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"hetsort/internal/diskio"
	"hetsort/internal/record"
)

// testConfig is a small, fast machine: 4 heterogeneous nodes, tiny
// blocks, generous budgets.
func testConfig() Config {
	return Config{
		Machine: MachineConfig{
			Perf:      []int{1, 1, 4, 4},
			BlockKeys: 64,
		},
		MaxJobs:  2,
		MaxQueue: 2,
	}
}

// testSpec generates count keys deterministically and sorts them with
// small memory.
func testSpec(count, seed int64) JobSpec {
	return JobSpec{
		Gen:         &GenSpec{Count: count, Seed: seed},
		MemoryKeys:  1024,
		Tapes:       4,
		MessageKeys: 128,
	}
}

func TestJobLifecycle(t *testing.T) {
	store := diskio.NewMemFS()
	s, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(testSpec(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state %s (%s)", st.State, st.Error)
	}
	if st.Keys != 2000 || st.Root == "" || st.Time <= 0 {
		t.Fatalf("status: %+v", st)
	}
	if root, err := VerifyJob(store, id); err != nil || root != st.Root {
		t.Fatalf("verify: %q %v (want %q)", root, err, st.Root)
	}
	s.Stop()
}

func TestVerifyDetectsTampering(t *testing.T) {
	store := diskio.NewMemFS()
	s, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Submit(testSpec(2000, 7))
	s.Wait(id)
	s.Stop()
	// Corrupt one output byte; the recomputed root must change.
	name := "jobs/" + id + "/node0/output"
	body, err := readObject(store, name)
	if err != nil {
		t.Fatal(err)
	}
	body[0] ^= 0xff
	if err := writeObject(store, name, body); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyJob(store, id); err == nil {
		t.Fatal("verify accepted a tampered output")
	}
}

// TestVerifyChecksTheMultiset: an output replaced by sorted keys of the
// same length (all zeros), with status.json re-rooted over the tampered
// artifacts, passes the root, the sortedness and the key counts — only
// the multiset check against the manifests' input checksum refuses it.
func TestVerifyChecksTheMultiset(t *testing.T) {
	store := diskio.NewMemFS()
	s, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := s.Submit(testSpec(2000, 7))
	s.Wait(id)
	s.Stop()
	zeroOutput(t, store, id)
	st, err := loadStatus(store, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Root, err = JobRoot(store, id, len(st.Partitions)); err != nil {
		t.Fatal(err)
	}
	if err := saveStatus(store, st); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyJob(store, id); err == nil || !strings.Contains(err.Error(), "multiset") {
		t.Fatalf("verify of a re-rooted all-zero output: %v", err)
	}
}

func TestAdmissionQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 1
	cfg.MaxQueue = 1
	s, err := New(cfg, diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ {
		id, err := s.Submit(testSpec(2000, int64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	// Slot + queue are full; the third submission must bounce.  The two
	// admitted jobs run fast, so a race toward completion could in
	// principle free the queue — but Submit holds the lock, and the
	// first job cannot finish before its goroutine even starts; in
	// practice the window is far larger than this test's runtime.
	if _, err := s.Submit(testSpec(2000, 99)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v", err)
	}
	for _, id := range ids {
		s.Wait(id)
		if st, _ := s.Status(id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	s.Stop()
}

func TestAdmissionBudget(t *testing.T) {
	cfg := testConfig()
	cfg.Machine.DiskBytes = 1 << 20 // 1 MiB: fits small jobs only
	s, err := New(cfg, diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// 4× input must exceed 1 MiB: 300k keys = 1.2 MB input.
	if _, err := s.Submit(testSpec(300_000, 1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized job: %v", err)
	}
	// Memory budget: each node wants MemoryKeys·4 bytes.
	cfg = testConfig()
	cfg.Machine.MemoryBytes = 1024 // under 4 nodes × 1024 keys × 4 B
	s2, err := New(cfg, diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if _, err := s2.Submit(testSpec(2000, 1)); !errors.Is(err, ErrBudget) {
		t.Fatalf("over-memory job: %v", err)
	}
}

// TestAdmissionLinkMemoryTopology: the flat all-to-all pins p² link
// buffers of MessageKeys each, which demand() now charges against the
// machine memory; the same spec routed through the tree topology pins
// only O(p·r) and must fit the same budget — the 422-instead-of-OOM
// contract.
func TestAdmissionLinkMemoryTopology(t *testing.T) {
	cfg := testConfig()
	// Workspace: 4 nodes × 1024 keys × 4 B = 16 KiB.  Flat links:
	// 4·4·65536·4 B = 4 MiB > budget.  Tree links: 4·2·65536·4 = 2 MiB.
	cfg.Machine.MemoryBytes = 3 << 20
	store := diskio.NewMemFS()
	s, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	spec := testSpec(2000, 1)
	spec.MessageKeys = 1 << 16
	if _, err := s.Submit(spec); !errors.Is(err, ErrBudget) {
		t.Fatalf("flat wide-message job: %v, want ErrBudget", err)
	}
	spec.Topology = "tree"
	spec.Radix = 2
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("tree variant of the same spec: %v", err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(id)
	if st.State != StateDone {
		t.Fatalf("tree job: %s (%s)", st.State, st.Error)
	}
	if root, err := VerifyJob(store, id); err != nil || root != st.Root {
		t.Fatalf("verify: %q %v (want %q)", root, err, st.Root)
	}
	// An unknown topology must be rejected at validation.
	spec.Topology = "torus"
	if _, err := s.Submit(spec); err == nil || errors.Is(err, ErrBudget) {
		t.Fatalf("unknown topology: %v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	s, err := New(testConfig(), diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	bad := []JobSpec{
		{},
		{Input: "inputs/missing"},
		{Gen: &GenSpec{Count: 0}},
		{Gen: &GenSpec{Count: 10, Dist: "no-such-dist"}},
		{Input: "inputs/x", Gen: &GenSpec{Count: 10}},
		{Gen: &GenSpec{Count: 10}, CrashPhase: 9},
	}
	for i, sp := range bad {
		if _, err := s.Submit(sp); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

// TestNewRejectsBadMachine: a machine no job could run on is refused
// when the service is built, not job by job at run time; a block size
// only a large memory_keys can serve is not such a machine.
func TestNewRejectsBadMachine(t *testing.T) {
	for _, m := range []MachineConfig{
		{Network: "bogus"},
		{Perf: []int{1, 0}},
		{BlockKeys: -1},
	} {
		if _, err := New(Config{Machine: m}, diskio.NewMemFS()); err == nil {
			t.Errorf("machine %+v accepted", m)
		}
	}
	s, err := New(Config{Machine: MachineConfig{BlockKeys: 8192}}, diskio.NewMemFS())
	if err != nil {
		t.Fatalf("B = 8192 refused: %v", err)
	}
	s.Stop()
}

// TestSubmitRejectsUnrunnableSpec: a spec whose run would fail its
// configuration checks is refused by Submit with 400: no job id, nothing
// written to the backend, no budget reserved.
func TestSubmitRejectsUnrunnableSpec(t *testing.T) {
	store := diskio.NewMemFS()
	s, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, edit := range []func(*JobSpec){
		func(sp *JobSpec) { sp.MemoryKeys = 100 },
		func(sp *JobSpec) { sp.Tapes = 2 },
		func(sp *JobSpec) { sp.Topology, sp.Radix = "tree", 1 },
		func(sp *JobSpec) { sp.CrashPhase, sp.CrashNode = 2, 9 },
	} {
		spec := testSpec(2000, 1)
		edit(&spec)
		if id, err := s.Submit(spec); err == nil || id != "" || errors.Is(err, ErrBudget) {
			t.Errorf("spec %+v: id %q, err %v; want a refusal", spec, id, err)
		}
		body, _ := json.Marshal(spec)
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: POST /jobs answered %s, want 400", spec, resp.Status)
		}
	}
	if names, _ := store.Names(); len(names) != 0 {
		t.Errorf("refused specs left backend objects: %v", names)
	}
	if s.resMem != 0 || s.resDisk != 0 || len(s.List()) != 0 {
		t.Errorf("refused specs reserved %d B memory, %d B disk, listed %d jobs", s.resMem, s.resDisk, len(s.List()))
	}
}

func TestCancelQueuedJob(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 1
	s, err := New(cfg, diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(testSpec(20000, 1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(testSpec(2000, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	s.Wait(queued)
	if st, _ := s.Status(queued); st.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}
	s.Wait(first)
	if st, _ := s.Status(first); st.State != StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}
	s.Stop()
}

// TestCancelPromotionWindow pins the race between Cancel and job
// promotion: finish() dequeues the next job and hands it to an executor
// goroutine, but the in-memory state stays "queued" until run() flips
// it.  A Cancel landing in that window must not close the job's done
// channel (the executor closes it; a second close panics the daemon)
// and must still take effect — the job ends canceled, not done.
func TestCancelPromotionWindow(t *testing.T) {
	s, err := New(testConfig(), diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the window deterministically: a job that is in s.jobs
	// with state "queued" but absent from s.queue, exactly as finish()
	// leaves a promoted job before its goroutine starts.
	spec := testSpec(2000, 1)
	j := &job{
		id:     "job-9999",
		spec:   spec,
		status: JobStatus{ID: "job-9999", State: StateQueued},
		done:   make(chan struct{}),
	}
	if err := saveSpec(s.store, j.id, &spec); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.running++
	s.mu.Unlock()
	if err := s.Cancel(j.id); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.done:
		t.Fatal("Cancel closed the done channel of a job it did not dequeue")
	default:
	}
	j.statusMu.Lock()
	canceled := j.canceled
	j.statusMu.Unlock()
	if !canceled {
		t.Fatal("Cancel did not flag the promoted job")
	}
	// The executor now starts; it must close done exactly once and land
	// the job in canceled — not run it to done over the acknowledged
	// cancel.
	s.mu.Lock()
	s.start(j)
	s.mu.Unlock()
	s.Wait(j.id)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("promoted job after window cancel: %s", st)
	}
	if st, err := loadStatus(s.store, j.id); err != nil || st.State != StateCanceled {
		t.Fatalf("durable state %+v (%v), want canceled", st, err)
	}
	s.Stop()
}

// TestSubmitHugeGenCount pins the admission overflow: a gen count large
// enough that 4·count·KeySize wraps int64 must be rejected as over
// budget, not admitted with a tiny overflowed demand and then OOM the
// daemon at generation time.
func TestSubmitHugeGenCount(t *testing.T) {
	s, err := New(testConfig(), diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for _, count := range []int64{1 << 60, math.MaxInt64} {
		if _, err := s.Submit(testSpec(count, 1)); !errors.Is(err, ErrBudget) {
			t.Fatalf("gen.count %d: %v, want ErrBudget", count, err)
		}
	}
}

// TestStopClosesQueuedJobs pins the Stop/Wait deadlock: a job still
// queued at Stop has no executor to close its done channel, so Stop
// must close it itself — and a restarted daemon must still pick the job
// up from its durable "queued" status and run it to done.
func TestStopClosesQueuedJobs(t *testing.T) {
	cfg := testConfig()
	cfg.MaxJobs = 1
	store := diskio.NewMemFS()
	s, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Submit(testSpec(100_000, 1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(testSpec(2000, 2))
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	done := make(chan struct{})
	go func() {
		s.Wait(queued)
		s.Wait(first)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Wait on a job blocked after Stop")
	}
	// Recovery: whatever Stop interrupted resumes, whatever stayed
	// queued restarts fresh; every job ends done.
	s2, err := New(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{first, queued} {
		s2.Wait(id)
		if st, _ := s2.Status(id); st.State != StateDone {
			t.Fatalf("job %s after restart: %s (%s)", id, st.State, st.Error)
		}
	}
	s2.Stop()
}

// TestHTTPEndToEnd drives the whole API over a real HTTP server against
// an in-memory store: upload an input object, submit, poll,
// download the result, check the trace and metrics.
func TestHTTPEndToEnd(t *testing.T) {
	s, err := New(testConfig(), diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Upload 2000 keys as an object.
	keys := record.Uniform.Generate(2000, 42, 4)
	body := record.EncodeKeys(nil, keys)
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/objects/inputs/data.u32", bytes.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %s", resp.Status)
	}
	// Uploads outside inputs/ are rejected.
	req, _ = http.NewRequest(http.MethodPut, srv.URL+"/objects/jobs/x/spec.json", strings.NewReader("{}"))
	resp, _ = http.DefaultClient.Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("upload outside inputs/: %s", resp.Status)
	}

	// Submit a job over the uploaded object.
	spec, _ := json.Marshal(JobSpec{Input: "inputs/data.u32", MemoryKeys: 1024, Tapes: 4, MessageKeys: 128})
	resp, err = http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: %s id=%q", resp.Status, sub.ID)
	}

	// Poll via the library (the HTTP status endpoint is exercised below
	// once terminal).
	s.Wait(sub.ID)
	resp, err = http.Get(srv.URL + "/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateDone || st.Root == "" {
		t.Fatalf("status: %+v", st)
	}

	// The result endpoint streams the sorted keys.
	resp, err = http.Get(srv.URL + "/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := record.DecodeKeys(nil, out)
	if len(got) != len(keys) {
		t.Fatalf("result has %d keys, want %d", len(got), len(keys))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("result not sorted at %d", i)
		}
	}
	if record.ChecksumOf(got) != record.ChecksumOf(keys) {
		t.Fatal("result is not a permutation of the input")
	}

	// Trace and metrics endpoints respond.
	resp, err = http.Get(srv.URL + "/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(tr, []byte("traceEvents")) {
		t.Fatalf("trace: %s (%d bytes)", resp.Status, len(tr))
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mets, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(mets, []byte("hetsortd_jobs_done_total 1")) {
		t.Fatalf("metrics:\n%s", mets)
	}

	// Listing includes the job; unknown jobs 404.
	resp, _ = http.Get(srv.URL + "/jobs")
	var list []JobStatus
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("list: %+v", list)
	}
	resp, _ = http.Get(srv.URL + "/jobs/no-such-job")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %s", resp.Status)
	}
}

// testStores makes the two stores hetsortd runs on: -store mem and
// -store dir:PATH.
var testStores = map[string]func(t *testing.T) diskio.FS{
	"mem": func(*testing.T) diskio.FS { return diskio.NewMemFS() },
	"dir": func(t *testing.T) diskio.FS {
		d, err := diskio.NewDirFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	},
}

// TestStoreObjects holds the service's reads and writes of whole objects
// on both stores: writeObject replaces an object whole, readObject and
// objectSize see the new content, and a missing object is
// os.ErrNotExist, which GET /objects answers with 404.
func TestStoreObjects(t *testing.T) {
	for name, mk := range testStores {
		t.Run(name, func(t *testing.T) {
			store := mk(t)
			for name, body := range map[string]string{"jobs/j1/spec.json": `{"a":1}`, "inputs/data": "xyzw"} {
				if err := writeObject(store, name, []byte(body)); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := readObject(store, "jobs/j1/spec.json"); err != nil || string(got) != `{"a":1}` {
				t.Fatalf("read: %q, %v", got, err)
			}
			if n, err := objectSize(store, "inputs/data"); err != nil || n != 4 {
				t.Fatalf("size: %d, %v", n, err)
			}
			if err := writeObject(store, "inputs/data", []byte("replaced")); err != nil {
				t.Fatal(err)
			}
			if got, err := readObject(store, "inputs/data"); err != nil || string(got) != "replaced" {
				t.Fatalf("replaced: %q, %v", got, err)
			}
			if names, _ := store.Names(); !slices.Equal(names, []string{"inputs/data", "jobs/j1/spec.json"}) {
				t.Fatalf("store holds %v", names)
			}
			if _, err := readObject(store, "ghost"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("read of a missing object: %v", err)
			}
			if _, err := objectSize(store, "ghost"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("size of a missing object: %v", err)
			}
		})
	}
}

// TestStoreReadsGiveTheirPagesBack: the service's reads close what they
// open, so on a mem store a replaced or removed object's pages go back
// to the pool instead of being left to the garbage collector.
func TestStoreReadsGiveTheirPagesBack(t *testing.T) {
	store := diskio.NewMemFS()
	before := diskio.MemFSPages()
	for v := byte(0); v < 3; v++ {
		if err := writeObject(store, "inputs/f", bytes.Repeat([]byte{v}, 100<<10)); err != nil {
			t.Fatal(err)
		}
		if data, err := readObject(store, "inputs/f"); err != nil || data[0] != v {
			t.Fatalf("read: %v", err)
		}
		if _, err := objectSize(store, "inputs/f"); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Remove("inputs/f"); err != nil {
		t.Fatal(err)
	}
	if after := diskio.MemFSPages(); after != before {
		t.Fatalf("MemFS held %d pages before and %d after the object was removed", before, after)
	}
}

// TestObjectNamesAreChecked: an object name arrives unescaped, so
// inputs%2F..%2Fjobs%2Fx passes the inputs/ prefix check as
// inputs/../jobs/x.  On a mem and a dir store, PUT and GET refuse such a
// name with 400, and nothing outside inputs/ appears or changes; a
// missing object is 404, and a job spec may not name such an input.
func TestObjectNamesAreChecked(t *testing.T) {
	for name, mk := range testStores {
		t.Run(name, func(t *testing.T) {
			store := mk(t)
			if err := writeObject(store, "jobs/x", []byte("artifact")); err != nil {
				t.Fatal(err)
			}
			s, err := New(testConfig(), store)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Stop()
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			do := func(method, path, body string) (int, string) {
				t.Helper()
				req, _ := http.NewRequest(method, srv.URL+"/objects/"+path, strings.NewReader(body))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				got, _ := io.ReadAll(resp.Body)
				return resp.StatusCode, string(got)
			}
			if code, _ := do(http.MethodPut, "inputs/ok", "keys"); code != http.StatusCreated {
				t.Fatalf("upload of a valid name: %d", code)
			}
			for _, bad := range []string{"inputs%2F..%2Fjobs%2Fx", "inputs/..%2Fjobs%2Fx"} {
				for _, method := range []string{http.MethodPut, http.MethodGet} {
					if code, body := do(method, bad, "evil"); code != http.StatusBadRequest {
						t.Errorf("%s %s: %d %s, want 400", method, bad, code, body)
					}
				}
			}
			if names, _ := store.Names(); !slices.Equal(names, []string{"inputs/ok", "jobs/x"}) {
				t.Errorf("store holds %v", names)
			}
			if body, err := readObject(store, "jobs/x"); err != nil || string(body) != "artifact" {
				t.Errorf("jobs/x holds %q, %v", body, err)
			}
			if code, body := do(http.MethodGet, "inputs/ok", ""); code != http.StatusOK || body != "keys" {
				t.Errorf("GET inputs/ok: %d %q", code, body)
			}
			if code, _ := do(http.MethodGet, "inputs/missing", ""); code != http.StatusNotFound {
				t.Errorf("GET inputs/missing: %d, want 404", code)
			}
			spec := JobSpec{Input: "inputs/../jobs/x", MemoryKeys: 1024, Tapes: 4, MessageKeys: 128}
			if id, err := s.Submit(spec); err == nil {
				t.Errorf("a spec naming %s was admitted as %s", spec.Input, id)
			}
		})
	}
}

// TestFaultyBackendFailsJob puts the daemon's store behind a FaultFS
// whose budget lets Submit write the spec and status (six operations)
// and then runs out inside the job's sort: the job must end failed, and
// the daemon must still list its jobs and stop.
func TestFaultyBackendFailsJob(t *testing.T) {
	store := diskio.NewFaultFS(diskio.NewMemFS(), 50)
	s, err := New(testConfig(), store)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(testSpec(2000, 1))
	if err != nil {
		t.Fatalf("submit within the budget: %v", err)
	}
	s.Wait(id)
	if store.Injected() == 0 {
		t.Fatalf("the job ran in %d store operations and met no fault", store.Ops())
	}
	if st, _ := s.Status(id); st.State != StateFailed {
		t.Fatalf("job on a failing store: %s (%s), want failed", st.State, st.Error)
	}
	stopped := make(chan []JobStatus)
	go func() {
		list := s.List()
		s.Stop()
		stopped <- list
	}()
	select {
	case list := <-stopped:
		if len(list) != 1 || list[0].ID != id {
			t.Fatalf("list: %+v", list)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("List or Stop blocked after a store fault")
	}
}

// TestWaitSeesTheJobCounted: Wait returns only after the job's executor
// has settled its accounting, so the counters a client reads right after
// (as /metrics does) already include the job.  The done channel used to
// close before the counters moved, and a client that woke in between
// read the job as still running.
func TestWaitSeesTheJobCounted(t *testing.T) {
	s, err := New(testConfig(), diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for i := int64(1); i <= 30; i++ {
		id, err := s.Submit(testSpec(4000, i))
		if err != nil {
			t.Fatal(err)
		}
		s.Wait(id)
		s.mu.Lock()
		running := s.running
		s.mu.Unlock()
		if done := s.nDone.Load(); done != i || running != 0 {
			t.Fatalf("after Wait on job %d: %d done, %d running", i, done, running)
		}
	}
}
