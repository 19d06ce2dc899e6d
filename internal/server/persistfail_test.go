package server

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestJobPersistFailureIsSeen: a completed job whose report the store
// cannot write is still completed and served from memory, and the loss is
// visible — one WARN line naming job, hash and artifact, one tick of
// job_persist_failures_total{artifact} — instead of silent. After a restart
// the stored entry serves its snapshot and no report, never a torn one.
func TestJobPersistFailureIsSeen(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The store creates reports/ on first use; a regular file in its place
	// fails every report write (as root too, which a chmod would not).
	if err := os.WriteFile(filepath.Join(dir, "reports"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	s := New(Options{Workers: 1, Store: st, Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	view, err := s.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	report, ok := s.Metrics(view.ID)
	if !ok || report == nil {
		t.Fatal("completed job serves no report after the store refused it")
	}
	if v, _ := familyValue(t, s.Registry(), "job_persist_failures_total", "report"); v != 1 {
		t.Errorf("job_persist_failures_total{report} = %v, want 1", v)
	}
	for _, artifact := range []string{"snapshot", "telemetry"} {
		if v, _ := familyValue(t, s.Registry(), "job_persist_failures_total", artifact); v != 0 {
			t.Errorf("job_persist_failures_total{%s} = %v, want 0", artifact, v)
		}
	}
	var warn string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "job result not persisted") {
			warn = line
		}
	}
	for _, want := range []string{"level=WARN", "job=" + view.ID, "hash=" + view.Hash, "artifact=report"} {
		if !strings.Contains(warn, want) {
			t.Errorf("persist-failure log line %q lacks %q", warn, want)
		}
	}
	snap, ok := s.Snapshot(view.ID)
	if !ok {
		t.Fatal("completed job has no snapshot")
	}
	s.Close()

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 1, Store: st2})
	defer s2.Close()
	again, err := s2.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("restart over the same store did not serve the stored snapshot")
	}
	if snap2, ok := s2.Snapshot(again.ID); !ok || !bytes.Equal(snap, snap2) {
		t.Error("snapshot served after the restart differs from the completed job's")
	}
	if report, ok := s2.Metrics(again.ID); !ok || report != nil {
		t.Errorf("after the restart the entry serves report %q (ok=%v), want none", report, ok)
	}
	if track, ok := s2.Telemetry(again.ID); !ok || track == nil {
		t.Error("the telemetry track, which was persisted, is gone after the restart")
	}
}
