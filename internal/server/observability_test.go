package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// familyValue reads one labeled series value out of a registry snapshot.
func familyValue(t *testing.T, reg *obs.Registry, name string, labels ...string) (float64, bool) {
	t.Helper()
	for _, f := range reg.Snapshot() {
		if f.Name != name {
			continue
		}
		for _, sr := range f.Series {
			if len(sr.Labels) != len(labels) {
				continue
			}
			match := true
			for i := range labels {
				if sr.Labels[i] != labels[i] {
					match = false
					break
				}
			}
			if match {
				return sr.Value, true
			}
		}
	}
	return 0, false
}

// TestMiddlewareLabelsAndHeaders pins the middleware contract: requests are
// counted under the matched route pattern (not the concrete path) with
// their method and status code, request IDs are honored or generated and
// always echoed, and responses carry Server-Timing.
func TestMiddlewareLabelsAndHeaders(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Route with a path parameter: the label must be the pattern.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-000001")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); len(got) != 16 {
		t.Fatalf("generated request ID %q, want 16 hex chars", got)
	}
	if st := resp.Header.Get("Server-Timing"); !strings.Contains(st, "total;dur=") {
		t.Fatalf("Server-Timing = %q, want total;dur=", st)
	}
	if v, ok := familyValue(t, s.Registry(), "http_requests_total", "/v1/jobs/{id}", "GET", "404"); !ok || v != 1 {
		t.Fatalf("http_requests_total{/v1/jobs/{id},GET,404} = %v (found=%v), want 1", v, ok)
	}

	// Client-supplied request ID is echoed verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/healthz", nil)
	req.Header.Set(RequestIDHeader, "my-trace-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "my-trace-id" {
		t.Fatalf("request ID = %q, want my-trace-id", got)
	}
	if v, ok := familyValue(t, s.Registry(), "http_requests_total", "/v1/healthz", "GET", "200"); !ok || v != 1 {
		t.Fatalf("http_requests_total{/v1/healthz,GET,200} = %v (found=%v), want 1", v, ok)
	}

	// Unmatched requests share one label instead of minting series.
	resp, err = http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if v, ok := familyValue(t, s.Registry(), "http_requests_total", "unmatched", "GET", "404"); !ok || v != 1 {
		t.Fatalf("http_requests_total{unmatched,GET,404} = %v (found=%v), want 1", v, ok)
	}
}

// TestRemovedAliasRoutes404: the unversioned pre-/v1 aliases are gone.
func TestRemovedAliasRoutes404(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, alias := range []string{"/healthz", "/jobs", "/storez"} {
		resp, err := http.Get(ts.URL + alias)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s status %d, want 404", alias, resp.StatusCode)
		}
	}
}

func statuszBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status = %d", resp.StatusCode)
	}
	return string(b)
}

// TestStatuszAndMetricsz drives a job to completion and checks both
// observability surfaces: the human-readable snapshot shows workers, the
// per-route latency digest, and the job phase totals; the Prometheus
// exposition carries the families with correct types.
func TestStatuszAndMetricsz(t *testing.T) {
	s := New(Options{Workers: 2, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)

	view, err := c.Submit(t.Context(), sedovSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)

	body := statuszBody(t, ts)
	for _, want := range []string{
		"uptime", "workers", "queue", "jobs", "1 completed",
		"route", "p50", "p95", "trimmed mean", "/v1/jobs",
		"phase", "queue-wait", "run", "verify", "persist",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metricsz content type %q", ct)
	}
	mb, _ := io.ReadAll(resp.Body)
	metrics := string(mb)
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE http_request_duration_seconds histogram",
		`http_requests_total{route="/v1/jobs",method="POST",code="202"} 1`,
		`job_phase_seconds_count{phase="run"} 1`,
		`job_phase_seconds_count{phase="persist"} 1`,
		"jobs_submitted_total 1",
		`jobs_terminal_total{state="completed"} 1`,
		"workers_total 2",
		"uptime_seconds",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metricsz missing %q", want)
		}
	}
}

// reportSpans decodes the spans member of a persisted report.
func reportSpans(t *testing.T, report []byte) *obs.SpanSet {
	t.Helper()
	var parsed struct {
		Spans *obs.SpanSet `json:"spans"`
	}
	if err := json.Unmarshal(report, &parsed); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	return parsed.Spans
}

// TestReportCarriesSpansAndCacheHitServesIdenticalBytes is the tentpole
// acceptance check: a completed job's persisted report embeds its lifecycle
// trace, and resubmitting the identical spec — including through a server
// restart over the same store — serves byte-identical report JSON (the
// spans are recorded once, at first execution).
func TestReportCarriesSpansAndCacheHitServesIdenticalBytes(t *testing.T) {
	storeDir := t.TempDir()
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 1, Store: st1})
	view, err := s1.Submit(sedovSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, view.ID, StateCompleted, 60*time.Second)
	report1, ok := s1.Metrics(view.ID)
	if !ok || report1 == nil {
		t.Fatal("no report recorded for completed job")
	}

	spans := reportSpans(t, report1)
	if spans == nil {
		t.Fatalf("report carries no lifecycle spans:\n%s", report1)
	}
	for _, phase := range []string{"queue-wait", "run", "verify"} {
		found := false
		for _, p := range spans.Phases {
			if p.Name == phase {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("lifecycle trace missing phase %q: %+v", phase, spans.Phases)
		}
	}
	// The persist phase is measured after the report is written, so it must
	// NOT appear inside it — it lives in the registry histogram only.
	for _, p := range spans.Phases {
		if p.Name == "persist" {
			t.Errorf("persist phase leaked into the persisted report: %+v", spans.Phases)
		}
	}

	// Same server, resubmitted: instant cache hit, identical bytes.
	again, err := s1.Submit(sedovSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	report2, ok := s1.Metrics(again.ID)
	if !ok || !bytes.Equal(report1, report2) {
		t.Fatal("cache-hit report differs from the original bytes")
	}
	s1.Close()

	// Fresh server over the same store: the hit crosses the restart and the
	// bytes still match.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 1, Store: st2})
	defer s2.Close()
	view3, err := s2.Submit(sedovSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !view3.CacheHit {
		t.Fatal("post-restart resubmission was not a cache hit")
	}
	report3, ok := s2.Metrics(view3.ID)
	if !ok || !bytes.Equal(report1, report3) {
		t.Fatalf("post-restart report differs from the original bytes:\nfirst: %s\nafter: %s", report1, report3)
	}
}
