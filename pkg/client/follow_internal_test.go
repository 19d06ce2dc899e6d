package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// sseServer serves every request through frames: it writes the SSE stream
// head, then the frames returned for this open (1-based), each as one
// `data:` line. It counts the opens.
func sseServer(t *testing.T, frames func(open int32) []any) (*Client, *atomic.Int32) {
	t.Helper()
	var opens atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		for _, f := range frames(opens.Add(1)) {
			b, err := json.Marshal(f)
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", b)
			w.(http.Flusher).Flush()
		}
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL), &opens
}

// TestWaitAndStreamDecodeFrameOver1MiB: a single frame larger than 1 MiB
// decodes through StreamTelemetry and through a wait; the line buffer grows
// to the frame instead of failing with bufio.ErrTooLong.
func TestWaitAndStreamDecodeFrameOver1MiB(t *testing.T) {
	big := strings.Repeat("x", 1<<20+4096)
	// One frame both decoders read: a job view and a telemetry event.
	c, _ := sseServer(t, func(int32) []any {
		return []any{map[string]string{"id": "job-1", "job": "job-1", "state": StateCompleted, "error": big}}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	job, err := c.WaitJob(ctx, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCompleted || job.Error != big {
		t.Fatalf("wait decoded state %q, error of %d bytes; want completed, %d bytes", job.State, len(job.Error), len(big))
	}

	var got []TelemetryEvent
	if err := c.StreamTelemetry(ctx, "job-1", func(ev TelemetryEvent) bool {
		got = append(got, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Job != "job-1" || got[0].State != StateCompleted {
		t.Fatalf("stream decoded %d frames: %+v", len(got), got)
	}
}

// TestWaitReopensAStreamCutBeforeTerminal: a stream that ends after a
// non-terminal frame is reopened, and the wait returns the terminal view of
// the second open.
func TestWaitReopensAStreamCutBeforeTerminal(t *testing.T) {
	c, opens := sseServer(t, func(open int32) []any {
		if open == 1 {
			return []any{Job{ID: "job-1", State: StateRunning, Progress: Progress{Step: 1, Total: 2}}}
		}
		return []any{Job{ID: "job-1", State: StateCompleted, Progress: Progress{Step: 2, Total: 2}}}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var seen []string
	job, err := c.WatchJob(ctx, "job-1", func(j *Job) { seen = append(seen, j.State) })
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCompleted || job.Progress.Step != 2 {
		t.Fatalf("wait returned %+v, want the completed view", job)
	}
	if n := opens.Load(); n != 2 {
		t.Fatalf("stream opened %d times, want 2", n)
	}
	if strings.Join(seen, ",") != "running,completed" {
		t.Fatalf("watch saw %v, want running then completed", seen)
	}
}

// TestWaitUnknownIDIsAPIError: a wait on an id the server does not know
// fails its open with the kind's 404 *APIError.
func TestWaitUnknownIDIsAPIError(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Options{Workers: 1, Store: st})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for _, tc := range []struct {
		code string
		wait func() error
	}{
		{server.CodeUnknownJob, func() error { _, err := c.WaitJob(ctx, "nope"); return err }},
		{server.CodeUnknownExperiment, func() error { _, err := c.WaitExperiment(ctx, "nope"); return err }},
		{server.CodeUnknownScaling, func() error { _, err := c.WaitScaling(ctx, "nope"); return err }},
		{server.CodeUnknownAnalysis, func() error { _, err := c.WaitCluster(ctx, "nope"); return err }},
	} {
		var apiErr *APIError
		if err := tc.wait(); !errors.As(err, &apiErr) || apiErr.Code != tc.code || apiErr.Status != http.StatusNotFound {
			t.Errorf("wait on an unknown id: %v, want a 404 *APIError %s", err, tc.code)
		}
	}
}

// TestWaitDeadlineReturnsLastView: when ctx expires mid-stream, the wait
// returns the last view it saw together with context.DeadlineExceeded.
func TestWaitDeadlineReturnsLastView(t *testing.T) {
	var opens atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opens.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "data: %s\n\n", `{"id":"job-1","state":"running","progress":{"step":3,"total":9}}`)
		w.(http.Flusher).Flush()
		<-r.Context().Done() // a live job that never finishes
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()

	job, err := New(ts.URL).WaitJob(ctx, "job-1")
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if job == nil || job.State != StateRunning || job.Progress.Step != 3 {
		t.Fatalf("wait returned %+v, want the last (running, step 3) view", job)
	}
	if n := opens.Load(); n != 1 {
		t.Fatalf("stream opened %d times, want 1", n)
	}
}
