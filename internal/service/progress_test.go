package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetsort/internal/diskio"
	"hetsort/internal/metrics"
	"hetsort/internal/progress"
)

// TestProgressEndpoint drives the live-introspection API: JSON by
// default, an SSE stream on request, 404 for unknown jobs, and a final
// snapshot that is marked done with every node's I/O settled.
func TestProgressEndpoint(t *testing.T) {
	s, err := New(testConfig(), diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id, err := s.Submit(testSpec(2000, 9))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/jobs/" + id + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		ID       string             `json:"id"`
		State    string             `json:"state"`
		Snapshot *progress.Snapshot `json:"snapshot"`
	}
	json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if pr.ID != id || pr.State != StateDone {
		t.Fatalf("progress: %+v", pr)
	}
	if pr.Snapshot == nil || !pr.Snapshot.Done || len(pr.Snapshot.Nodes) == 0 {
		t.Fatalf("snapshot: %+v", pr.Snapshot)
	}
	for _, np := range pr.Snapshot.Nodes {
		if np.IO.Total() == 0 {
			t.Errorf("node %d finished with zero I/O", np.Node)
		}
	}

	// SSE on a terminal job: one `event: done` frame, then EOF.
	resp, err = http.Get(srv.URL + "/jobs/" + id + "/progress?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var sawDone, sawData bool
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			sawDone = true
		}
		if strings.HasPrefix(line, "data: ") {
			sawData = true
		}
	}
	resp.Body.Close()
	if !sawDone || !sawData {
		t.Fatalf("SSE stream missing done event (%v) or data frame (%v)", sawDone, sawData)
	}

	resp, _ = http.Get(srv.URL + "/jobs/no-such-job/progress")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job progress: %s", resp.Status)
	}
}

// TestMetricsExposition asserts the /metrics page is valid Prometheus
// 0.0.4 text exposition, with the right Content-Type and a histogram
// family for completed-job makespans.
func TestMetricsExposition(t *testing.T) {
	s, err := New(testConfig(), diskio.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	id, err := s.Submit(testSpec(2000, 21))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ExpositionContentType {
		t.Fatalf("Content-Type %q, want %q", ct, metrics.ExpositionContentType)
	}
	if err := metrics.LintExposition(page); err != nil {
		t.Fatalf("/metrics fails exposition lint: %v\n%s", err, page)
	}
	for _, want := range []string{
		"# TYPE hetsortd_jobs_done_total counter",
		"hetsortd_jobs_done_total 1\n",
		"# TYPE hetsortd_job_vsec histogram",
		`hetsortd_job_vsec_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q:\n%s", want, page)
		}
	}
}
