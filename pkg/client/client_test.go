package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/store"
	"repro/pkg/client"
)

// newServer spins a real job server behind httptest; the suite exercises
// the client against the same handler production serves.
func newServer(t *testing.T) (*server.Server, *client.Client) {
	t.Helper()
	s, ts := startServer(t, 2)
	return s, client.New(ts.URL)
}

// startServer is a job server with the given worker count behind
// httptest.
func startServer(t *testing.T, workers int) (*server.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: workers, Store: st})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func sedovSpec(steps, n int) scenario.JobSpec {
	return scenario.JobSpec{Spec: scenario.Spec{
		Scenario: "sedov",
		Params: scenario.Params{
			N: n, NNeighbors: 20,
			Extra: map[string]float64{"energy": 1},
		},
		Steps: steps,
		Cores: 2,
	}}
}

// TestClientJobRoundTrip: submit, wait, snapshot, metrics, and the
// cache-hit resubmission — the full happy path through the typed client.
func TestClientJobRoundTrip(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	infos, err := c.Scenarios(ctx)
	if err != nil || len(infos) == 0 {
		t.Fatalf("scenarios: %v (%d entries)", err, len(infos))
	}

	job, err := c.Submit(ctx, sedovSpec(2, 216))
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Hash == "" {
		t.Fatalf("submission view incomplete: %+v", job)
	}
	done, err := c.WaitJob(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != client.StateCompleted || !done.Terminal() {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	snap, err := c.Snapshot(ctx, job.ID)
	if err != nil || len(snap) == 0 {
		t.Fatalf("snapshot: %v (%d bytes)", err, len(snap))
	}
	rep, err := c.Metrics(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != "sedov" || rep.Particles == 0 {
		t.Fatalf("report %+v", rep)
	}

	again, err := c.Submit(ctx, sedovSpec(2, 216))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("identical resubmission not a cache hit: %+v", again)
	}

	// Batch: duplicates coalesce, bad items error per-item.
	items, err := c.SubmitBatch(ctx, []scenario.JobSpec{
		sedovSpec(2, 216), sedovSpec(2, 216),
		{Spec: scenario.Spec{Scenario: "warp-drive", Steps: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || items[0].Job == nil || items[1].Job == nil || items[2].Error == "" {
		t.Fatalf("batch items %+v", items)
	}
	// The spec already completed above, so both duplicates are cache hits
	// of the same stored result.
	if items[0].Job.Hash != items[1].Job.Hash || !items[0].Job.CacheHit || !items[1].Job.CacheHit {
		t.Fatalf("batch duplicates did not share the cached result: %+v vs %+v",
			items[0].Job, items[1].Job)
	}
}

// TestClientAPIErrorDecoding: non-2xx responses surface as *APIError with
// the server's stable code, status, and message.
func TestClientAPIErrorDecoding(t *testing.T) {
	_, c := newServer(t)
	ctx := context.Background()

	_, err := c.Job(ctx, "job-999999")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not an APIError", err, err)
	}
	if apiErr.Status != 404 || apiErr.Code != "unknown_job" || apiErr.Message == "" {
		t.Fatalf("decoded error %+v", apiErr)
	}
	if !strings.Contains(apiErr.Error(), "unknown_job") {
		t.Fatalf("APIError.Error() = %q", apiErr.Error())
	}

	_, err = c.Submit(ctx, scenario.JobSpec{Spec: scenario.Spec{Scenario: "warp-drive"}})
	if !errors.As(err, &apiErr) || apiErr.Code != "unknown_scenario" {
		t.Fatalf("unknown scenario error %v", err)
	}
}

// TestClientExperimentAndPagination: the experiment round trip and cursor
// iteration through the client.
func TestClientExperimentAndPagination(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	exp, err := c.SubmitExperiment(ctx, experiments.Sweep{
		Base: sedovSpec(2, 0),
		Ns:   []int{216, 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitExperiment(ctx, exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateCompleted || final.Result == nil {
		t.Fatalf("experiment %s: %s (%s)", final.ID, final.State, final.Error)
	}
	if len(final.Result.Points) != 2 || final.Result.Fit.Order != -3*final.Result.Fit.Slope {
		t.Fatalf("result %+v", final.Result)
	}

	page, err := c.Experiments(ctx, client.ListOptions{Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Experiments) != 1 || page.NextCursor != "" {
		t.Fatalf("experiment page %+v", page)
	}

	// Member jobs paginate with limit=1: every page holds one job and the
	// cursors chain to the end.
	seen := map[string]bool{}
	cursor := ""
	for i := 0; i < 10; i++ {
		jp, err := c.Jobs(ctx, client.ListOptions{Limit: 1, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jp.Jobs {
			if seen[j.ID] {
				t.Fatalf("job %s served twice across pages", j.ID)
			}
			seen[j.ID] = true
		}
		if jp.NextCursor == "" {
			break
		}
		cursor = jp.NextCursor
	}
	if len(seen) != 2 {
		t.Fatalf("pagination visited %d jobs, want 2", len(seen))
	}
}

// TestClientTelemetry: the telemetry track and live stream round-trip
// through the typed client.
func TestClientTelemetry(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	job, err := c.Submit(ctx, sedovSpec(3, 216))
	if err != nil {
		t.Fatal(err)
	}
	// The live stream follows the job to completion, delivering samples.
	var frames []client.TelemetryEvent
	if err := c.StreamTelemetry(ctx, job.ID, func(ev client.TelemetryEvent) bool {
		frames = append(frames, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("stream delivered no frames")
	}
	final := frames[len(frames)-1]
	if !client.TerminalState(final.State) {
		t.Fatalf("stream ended on non-terminal state %q", final.State)
	}
	if final.Sample == nil || final.Sample.Step != 3 {
		t.Fatalf("terminal frame sample %+v, want step 3", final.Sample)
	}

	// The persisted track spans the whole run with a clean rollup.
	track, err := c.Telemetry(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if track.Status != "ok" || len(track.Samples) != 3 {
		t.Fatalf("track status=%q samples=%d, want ok/3", track.Status, len(track.Samples))
	}
	if track.Samples[0].Step != 1 || track.Samples[2].Step != 3 {
		t.Fatalf("track endpoints %d..%d", track.Samples[0].Step, track.Samples[2].Step)
	}
	raw, err := c.RawTelemetry(ctx, job.ID)
	if err != nil || len(raw) == 0 {
		t.Fatalf("raw telemetry: %v (%d bytes)", err, len(raw))
	}
	if done, err := c.Job(ctx, job.ID); err != nil || done.Telemetry != "ok" {
		t.Fatalf("job view telemetry rollup %q (%v), want ok", done.Telemetry, err)
	}

	// Unknown jobs surface the stable error code.
	var apiErr *client.APIError
	if _, err := c.Telemetry(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.Code != "unknown_job" {
		t.Fatalf("telemetry of unknown job: %v", err)
	}
	if err := c.StreamTelemetry(ctx, "nope", func(client.TelemetryEvent) bool { return true }); !errors.As(err, &apiErr) || apiErr.Code != "unknown_job" {
		t.Fatalf("stream of unknown job: %v", err)
	}
}

// TestClientStreamTelemetryEarlyStop: returning false from the frame
// callback ends the stream without error while the job keeps running.
func TestClientStreamTelemetryEarlyStop(t *testing.T) {
	s, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	job, err := c.Submit(ctx, sedovSpec(2000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := c.StreamTelemetry(ctx, job.ID, func(ev client.TelemetryEvent) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times, want 3", n)
	}
	if _, err := c.Cancel(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	_ = s
}

// queueFullServer rejects the first `failures` submissions with the
// queue_full envelope, then accepts — the backoff contract's test double.
func queueFullServer(failures int32) (*httptest.Server, *int32) {
	var calls int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := atomic.AddInt32(&calls, 1)
		w.Header().Set("Content-Type", "application/json")
		if n <= failures {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":{"code":"queue_full","message":"server: job queue full"}}`))
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"job-000001","state":"queued"}`))
	}))
	return ts, &calls
}

// TestSubmitRetriesQueueFull: with a policy configured, transient
// queue_full rejections back off and resubmit until accepted.
func TestSubmitRetriesQueueFull(t *testing.T) {
	ts, calls := queueFullServer(2)
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}))
	job, err := c.Submit(context.Background(), sedovSpec(1, 216))
	if err != nil {
		t.Fatalf("Submit with retry: %v", err)
	}
	if job.ID != "job-000001" {
		t.Fatalf("job %+v", job)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Fatalf("server saw %d submissions, want 3 (2 rejections + 1 success)", got)
	}
}

// TestSubmitRetryExhaustsAttempts: a persistently full queue surfaces the
// queue_full error after exactly MaxAttempts tries.
func TestSubmitRetryExhaustsAttempts(t *testing.T) {
	ts, calls := queueFullServer(100)
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}))
	_, err := c.Submit(context.Background(), sedovSpec(1, 216))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeQueueFull {
		t.Fatalf("error %v, want a surfaced queue_full after exhausting retries", err)
	}
	if got := atomic.LoadInt32(calls); got != 3 {
		t.Fatalf("server saw %d submissions, want exactly MaxAttempts=3", got)
	}
}

// TestSubmitNoRetryByDefault: without the option the rejection surfaces
// immediately (load shedders and tests rely on seeing the 503).
func TestSubmitNoRetryByDefault(t *testing.T) {
	ts, calls := queueFullServer(100)
	defer ts.Close()

	c := client.New(ts.URL)
	_, err := c.Submit(context.Background(), sedovSpec(1, 216))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeQueueFull {
		t.Fatalf("error %v, want queue_full surfaced immediately", err)
	}
	if got := atomic.LoadInt32(calls); got != 1 {
		t.Fatalf("server saw %d submissions, want 1 (no retry configured)", got)
	}
}

// TestSubmitRetryRespectsContext: a backoff wait ends with the context,
// joining the rejection and the cancellation.
func TestSubmitRetryRespectsContext(t *testing.T) {
	ts, _ := queueFullServer(100)
	defer ts.Close()

	c := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, sedovSpec(1, 216))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry wait outlived the context: %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want the context deadline joined in", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeQueueFull {
		t.Fatalf("error %v, want the queue_full rejection joined in", err)
	}
}

// TestClientScalingRoundTrip: the scaling experiment round trip — submit,
// wait, typed result, cache hit, delete.
func TestClientScalingRoundTrip(t *testing.T) {
	_, c := newServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	sw := experiments.ScalingSweep{Base: sedovSpec(2, 216), Cores: []int{12, 24}}
	scl, err := c.SubmitScaling(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitScaling(ctx, scl.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateCompleted || final.Result == nil {
		t.Fatalf("scaling %s: %s (%s)", final.ID, final.State, final.Error)
	}
	if len(final.Result.Arms) != 1 || len(final.Result.Arms[0].Points) != 2 || final.Result.Arms[0].Fit == nil {
		t.Fatalf("result %+v", final.Result)
	}

	page, err := c.Scalings(ctx, client.ListOptions{Limit: 10})
	if err != nil || len(page.Scaling) != 1 {
		t.Fatalf("scaling page %+v (%v)", page, err)
	}

	again, err := c.SubmitScaling(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("identical scaling resubmission not a cache hit: %+v", again)
	}
	if err := c.DeleteScaling(ctx, again.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Scaling(ctx, again.ID); err == nil {
		t.Fatal("deleted scaling experiment still served")
	}
}

// TestRequestIDPropagation pins the correlation contract: every client
// request carries an X-Request-Id the server echoes, WithRequestID
// overrides the generator, and a decoded *APIError carries the ID of the
// failed exchange (both in the struct and in Error()).
func TestRequestIDPropagation(t *testing.T) {
	var lastID atomic.Value
	_, c := newServer(t)

	// Against the real server: an unknown-job error carries a request ID.
	ctx := context.Background()
	_, err := c.Job(ctx, "job-999999")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("expected *APIError, got %v", err)
	}
	if apiErr.Code != "unknown_job" {
		t.Fatalf("code = %q, want unknown_job", apiErr.Code)
	}
	if len(apiErr.RequestID) != 16 {
		t.Fatalf("APIError.RequestID = %q, want a 16-hex-char generated ID", apiErr.RequestID)
	}
	if !strings.Contains(apiErr.Error(), apiErr.RequestID) {
		t.Fatalf("Error() %q does not mention the request ID", apiErr.Error())
	}

	// A pinned generator propagates verbatim — through request, server
	// echo, and the decoded error.
	seen := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastID.Store(r.Header.Get(client.RequestIDHeader))
		w.Header().Set(client.RequestIDHeader, r.Header.Get(client.RequestIDHeader))
		http.Error(w, `{"error":{"code":"conflict","message":"nope"}}`, http.StatusConflict)
	}))
	defer seen.Close()
	pinned := client.New(seen.URL, client.WithRequestID(func() string { return "trace-42" }))
	_, err = pinned.Job(context.Background(), "whatever")
	if got, _ := lastID.Load().(string); got != "trace-42" {
		t.Fatalf("server saw request ID %q, want trace-42", got)
	}
	if !errors.As(err, &apiErr) || apiErr.RequestID != "trace-42" {
		t.Fatalf("APIError.RequestID = %v, want trace-42 (err=%v)", apiErr, err)
	}
}
