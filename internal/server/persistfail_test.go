package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestJobPersistFailureIsSeen: a completed job whose record the store
// cannot write is a completed job whose result is evicted. It keeps its
// view, verify rollup and watchdog status included; its snapshot, metrics,
// telemetry and trace answer 410 gone; and the loss is visible — one WARN
// line naming job, hash and artifact, one tick of
// job_persist_failures_total{artifact} — instead of silent. A resubmission
// recomputes. A record is stored whole or not at all: after a restart the
// store holds nothing of the job, and the resubmission recomputes the
// snapshot, report and track a healthy store's run produced.
func TestJobPersistFailureIsSeen(t *testing.T) {
	ref := New(Options{Workers: 1, Store: tempStore(t)})
	submitted, err := ref.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	refView := waitState(t, ref, submitted.ID, StateCompleted, 60*time.Second)
	want, ok := ref.Snapshot(refView.ID)
	if !ok {
		t.Fatal("the healthy store's job has no snapshot")
	}
	ref.Close()

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The store creates packs/ on first use; a regular file in its place
	// fails every record write (as root too, which a chmod would not).
	packs := filepath.Join(dir, "packs")
	if err := os.WriteFile(packs, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	s := New(Options{Workers: 1, Store: st, Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	if submitted, err = s.Submit(sedovSpec(2)); err != nil {
		t.Fatal(err)
	}
	view := waitState(t, s, submitted.ID, StateCompleted, 60*time.Second)
	if view.Verify == nil || !reflect.DeepEqual(view.Verify, refView.Verify) || view.Telemetry != refView.Telemetry || view.Progress != refView.Progress {
		t.Errorf("the unkept job's view %+v %+v, the healthy store's %+v %+v", view, view.Verify, refView, refView.Verify)
	}
	wantGone(t, s, view.ID)
	if v, _ := familyValue(t, s.Registry(), "job_persist_failures_total", "record"); v != 1 {
		t.Errorf("job_persist_failures_total{record} = %v, want 1", v)
	}
	if v, _ := familyValue(t, s.Registry(), "job_persist_failures_total", "index"); v != 0 {
		t.Errorf("job_persist_failures_total{index} = %v, want 0", v)
	}
	var warn string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "job result not persisted") {
			warn = line
		}
	}
	for _, want := range []string{"level=WARN", "job=" + view.ID, "hash=" + view.Hash, "artifact=record"} {
		if !strings.Contains(warn, want) {
			t.Errorf("persist-failure log line %q lacks %q", warn, want)
		}
	}
	if again, err := s.Submit(sedovSpec(2)); err != nil || again.CacheHit {
		t.Fatalf("resubmission of the unkept result: %+v, %v; want a recomputation", again, err)
	}
	s.Close()

	if err := os.Remove(packs); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := st2.Stats().Entries; n != 0 {
		t.Fatalf("the store holds %d entries of a record it could not write", n)
	}
	s2 := New(Options{Workers: 1, Store: st2})
	defer s2.Close()
	again, err := s2.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("a record the store could not write is a cache hit after the restart")
	}
	waitState(t, s2, again.ID, StateCompleted, 60*time.Second)
	if snap2, ok := s2.Snapshot(again.ID); !ok || !bytes.Equal(want, snap2) {
		t.Error("the recomputed snapshot differs from the healthy store's")
	}
	if report2, ok := s2.Metrics(again.ID); !ok || report2 == nil {
		t.Error("the recomputed job serves no report")
	}
	if track2, ok := s2.Telemetry(again.ID); !ok || track2 == nil {
		t.Error("the recomputed job serves no track")
	}
}

// wantGone fails unless the completed job's snapshot, metrics, telemetry
// and trace each answer 410 with code gone, as an evicted result's do.
func wantGone(t *testing.T, s *Server, id string) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, what := range []string{"snapshot", "metrics", "telemetry", "trace"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/" + what)
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error APIError }
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGone || body.Error.Code != CodeGone {
			t.Errorf("GET %s of job %s: %d %q, want 410 %q", what, id, resp.StatusCode, body.Error.Code, CodeGone)
		}
	}
}

// TestServedJobsCreateNoFiles: storing a result appends to a pack and
// creates no file. After the first job the store directory holds the index,
// its journal and one pack; 30 more distinct jobs, each stored, leave it
// with not one file more.
func TestServedJobsCreateNoFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st})
	defer s.Close()
	var first []string
	for i := range 31 {
		spec := sedovSpec(1)
		spec.Params.Extra = map[string]float64{"energy": 1 + float64(i)/64}
		view, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, view.ID, StateCompleted, 60*time.Second)
		if _, ok := st.Get(view.Hash); !ok {
			t.Fatalf("job %d's result is not stored", i)
		}
		if i == 0 {
			first = filesUnder(t, dir)
		}
	}
	if after := filesUnder(t, dir); !reflect.DeepEqual(after, first) {
		t.Errorf("after the first job the store held %q; 30 jobs later %q", first, after)
	}
}
