package server

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/store"
)

// TestCompletedSnapshotSurvivesTightCap: a byte budget that holds the
// snapshot but not the whole record (snapshot + report + track). The
// store's eviction pass drops the record it was just handed; the server
// must learn that from the same call and keep the snapshot in memory, so a
// completed job still serves it. When the record went down in three store
// calls the memory copy was dropped after the first, and the pass inside
// the second evicted the entry: the snapshot was nowhere.
func TestCompletedSnapshotSurvivesTightCap(t *testing.T) {
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
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	want, ok := s.Snapshot(view.ID)
	if !ok {
		t.Fatal("completed job has no snapshot on an unbounded store")
	}
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
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	got, ok := s.Snapshot(view.ID)
	if !ok {
		_, _, serr := tight.ReadObject(view.Hash)
		t.Fatalf("completed job serves no snapshot (store read: %v)", serr)
	}
	if !bytes.Equal(got, want) {
		t.Error("snapshot served under the tight cap differs from the unbounded run's")
	}
	if n := tight.Stats().Bytes; n > sizes.ObjectBytes+sizes.ReportBytes/2 {
		t.Errorf("store holds %d bytes over its cap", n)
	}
}
