package server

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/store"
)

// TestTightCapRecordIsGone: a byte budget that holds the snapshot but not
// the whole record (snapshot + report + track). The store's eviction pass
// drops the record it was just handed, and the completed job is then a job
// whose result was evicted: its view stays, with the rollups of its run,
// its snapshot, metrics, telemetry and trace answer 410 gone, the store
// stays under its cap, and a resubmission recomputes.
func TestTightCapRecordIsGone(t *testing.T) {
	// Learn one job's sizes on an unbounded store.
	free, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: free})
	view, err := s.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	s.Close()
	sizes := free.Stats()
	if sizes.ReportBytes == 0 || sizes.TelemetryBytes == 0 {
		t.Fatalf("unbounded store recorded %+v, want a report and a track", sizes)
	}

	tight, err := store.Open(t.TempDir(), store.Options{MaxBytes: sizes.ObjectBytes + sizes.ReportBytes/2})
	if err != nil {
		t.Fatal(err)
	}
	s = New(Options{Workers: 1, Store: tight})
	defer s.Close()
	view, err = s.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	if got.Verify == nil || !reflect.DeepEqual(got.Verify, want.Verify) || got.Telemetry != want.Telemetry {
		t.Errorf("view under the tight cap %+v %+v, the unbounded run's %+v %+v", got, got.Verify, want, want.Verify)
	}
	wantGone(t, s, view.ID)
	if n := tight.Stats().Bytes; n > sizes.ObjectBytes+sizes.ReportBytes/2 {
		t.Errorf("store holds %d bytes over its cap", n)
	}
	again, err := s.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("resubmission of an evicted record is a cache hit")
	}
	waitState(t, s, again.ID, StateCompleted, 60*time.Second)
}
