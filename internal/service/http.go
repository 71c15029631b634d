package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"hetsort/internal/diskio"
	"hetsort/internal/metrics"
	"hetsort/internal/progress"
	"hetsort/internal/record"
)

// apiError is the machine-readable error object every non-2xx response
// carries (cmd/hetsort's -json flag emits the same shape for parity).
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// Handler returns the hetsortd HTTP API:
//
//	POST /jobs               submit a JobSpec, returns {"id": ...}
//	GET  /jobs               list all job statuses
//	GET  /jobs/{id}          one job's status (includes the Merkle root)
//	POST /jobs/{id}/cancel   cancel a queued or running job
//	GET  /jobs/{id}/result   the sorted output, concatenated, as bytes
//	GET  /jobs/{id}/trace    the job's Chrome trace_event JSON (Perfetto)
//	GET  /jobs/{id}/progress live per-node progress snapshot (JSON); with
//	                         Accept: text/event-stream (or ?stream=1), an
//	                         SSE stream of snapshots until the job ends
//	GET  /metrics            Prometheus text exposition (0.0.4)
//	PUT  /objects/{name...}  upload an input object (names under inputs/)
//	GET  /objects/{name...}  download any object in the store
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("PUT /objects/{name...}", s.handlePutObject)
	mux.HandleFunc("GET /objects/{name...}", s.handleGetObject)
	return mux
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
		return
	}
	id, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrBudget):
		writeError(w, http.StatusUnprocessableEntity, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	}
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	if err := s.Cancel(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Status(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if st.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s, not done", id, st.State))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(st.Keys*record.KeySize))
	for i := range st.Partitions {
		// Headers are gone; a short body tells the client.
		if copyObject(w, s.store, fmt.Sprintf("jobs/%s/node%d/output", id, i)) != nil {
			return
		}
	}
}

// copyObject writes the content of the named object to w.
func copyObject(w io.Writer, store diskio.FS, name string) error {
	f, err := store.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	body, err := readObject(s.store, traceName(r.PathValue("id")))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// progressResponse is the GET /jobs/{id}/progress body (and each SSE
// data payload).  Snapshot is null until the job's run has started.
type progressResponse struct {
	ID       string             `json:"id"`
	State    string             `json:"state"`
	Snapshot *progress.Snapshot `json:"snapshot,omitempty"`
}

func (j *job) progressResponse() progressResponse {
	resp := progressResponse{ID: j.id, State: j.State()}
	if tr := j.tracker(); tr != nil {
		resp.Snapshot = tr.Snapshot()
	}
	return resp
}

// terminal reports whether a job state can no longer change.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

func (s *Service) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	stream := r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if !stream {
		writeJSON(w, http.StatusOK, j.progressResponse())
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("service: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(event string, resp progressResponse) bool {
		body, err := json.Marshal(resp)
		if err != nil {
			return false
		}
		if event != "" {
			fmt.Fprintf(w, "event: %s\n", event)
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", body); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		resp := j.progressResponse()
		if terminal(resp.State) {
			emit("done", resp)
			return
		}
		if !emit("", resp) {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			emit("done", j.progressResponse())
			return
		case <-tick.C:
		}
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	running, queued := s.running, len(s.queue)
	s.mu.Unlock()
	e := metrics.NewExposition("hetsortd")
	e.Gauge("jobs_running", "Jobs currently executing on the shared machine.", float64(running), nil)
	e.Gauge("jobs_queued", "Jobs admitted and waiting for a running slot.", float64(queued), nil)
	e.Counter("jobs_submitted_total", "Jobs accepted by the admission controller.", float64(s.nSubmitted.Load()), nil)
	e.Counter("jobs_done_total", "Jobs that completed successfully.", float64(s.nDone.Load()), nil)
	e.Counter("jobs_failed_total", "Jobs that ended in an error.", float64(s.nFailed.Load()), nil)
	e.Counter("jobs_canceled_total", "Jobs canceled by the client.", float64(s.nCanceled.Load()), nil)
	e.Counter("jobs_rejected_queue_total", "Submissions rejected because the queue was full (429).", float64(s.nRejectedQueue.Load()), nil)
	e.Counter("jobs_rejected_budget_total", "Submissions rejected by the memory/disk budget (422).", float64(s.nRejectedBudget.Load()), nil)
	e.Counter("jobs_recovered_total", "Jobs re-admitted from the backend after a daemon restart.", float64(s.nRecovered.Load()), nil)
	e.Counter("jobs_resumed_total", "Recovered jobs resumed from their checkpoint manifests.", float64(s.nResumed.Load()), nil)
	e.Counter("jobs_resume_fallback_total", "Recovered jobs re-run fresh because no manifest had committed.", float64(s.nResumedFallback.Load()), nil)
	e.Histogram("job_vsec", "Virtual makespan of completed jobs in seconds.", &s.jobVsec, nil)
	// Per-running-job series: bounded by MaxJobs, so the `job` label's
	// cardinality stays small.
	for _, j := range s.runningJobs() {
		tr := j.tracker()
		if tr == nil {
			continue
		}
		snap := tr.Snapshot()
		if snap == nil {
			continue
		}
		lbl := []metrics.Label{{Name: "job", Value: j.id}}
		var moved int64
		maxStep := 0
		for i := range snap.Nodes {
			moved += snap.Nodes[i].KeysMoved
			if snap.Nodes[i].Step > maxStep {
				maxStep = snap.Nodes[i].Step
			}
		}
		e.Gauge("job_clock_vsec", "Running job's max node virtual clock.", snap.Time, lbl)
		e.Gauge("job_keys_moved", "Running job's keys moved through disk so far.", float64(moved), lbl)
		e.Gauge("job_eta_vsec", "Running job's projected remaining virtual seconds.", snap.ETA, lbl)
		e.Gauge("job_step", "Running job's furthest current Algorithm-1 step across nodes.", float64(maxStep), lbl)
	}
	w.Header().Set("Content-Type", metrics.ExpositionContentType)
	e.WriteTo(w)
}

// Object names arrive unescaped (%2F is a slash), so each is checked
// whole with validName before it names anything in the store.
func (s *Service) handlePutObject(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Uploads are confined to inputs/ so a client cannot clobber job
	// artifacts (the Merkle anchor would catch it, but why allow it).
	if !strings.HasPrefix(name, "inputs/") {
		writeError(w, http.StatusForbidden, fmt.Errorf("uploads must be under inputs/, got %q", name))
		return
	}
	if err := validName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var n int64
	err := diskio.ReplaceFile(s.store, name, func(f io.Writer) (err error) {
		n, err = io.Copy(f, r.Body)
		return err
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"name": name, "bytes": n})
}

func (s *Service) handleGetObject(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validName(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body, err := readObject(s.store, name)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, os.ErrNotExist) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(body)
}
