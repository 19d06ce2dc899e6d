package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
	"repro/pkg/client"
)

// testClock is a race-safe adjustable clock shared between the test and the
// server's worker goroutines.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

// listAll returns every job view in submission order.
func listAll(s *Server) []JobView {
	views, _ := s.ListPage("", "", MaxPageLimit)
	return views
}

func newTestClock() *testClock { return &testClock{t: time.Unix(1_000_000, 0)} }

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestRestartServesStoredResult is the acceptance path of the persistent
// store: a second server over the same store directory serves a previously
// completed spec as a cache hit with a byte-identical snapshot.
func TestRestartServesStoredResult(t *testing.T) {
	storeDir := t.TempDir()
	spec := sedovSpec(3)
	ctx := context.Background()

	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	c1 := testClient(ts1)

	view, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if view.CacheHit {
		t.Fatal("fresh store reported a cache hit")
	}
	waitState(t, s1, view.ID, StateCompleted, 60*time.Second)
	snap1, err := c1.Snapshot(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	ps1 := decodeSnapshot(t, snap1)
	ts1.Close()
	s1.Close()

	if st1.Stats().Entries != 1 {
		t.Fatalf("store holds %d entries after completion, want 1", st1.Stats().Entries)
	}

	// "Restart": a brand-new store handle and server over the same dir.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().Entries != 1 {
		t.Fatalf("reopened store holds %d entries, want 1", st2.Stats().Entries)
	}
	s2 := New(Options{Workers: 2, Store: st2})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := testClient(ts2)

	again, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != StateCompleted {
		t.Fatalf("restarted server did not serve the stored result: %+v", again)
	}
	if again.Hash != view.Hash {
		t.Fatalf("hash changed across restart: %s vs %s", again.Hash, view.Hash)
	}
	if again.Progress.Step != 3 || again.Progress.SimTime <= 0 {
		t.Fatalf("stored progress %+v", again.Progress)
	}

	snap2, err := c2.Snapshot(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("snapshot bytes differ across restart")
	}
	ps2 := decodeSnapshot(t, snap2)
	if ps1.Checksum() != ps2.Checksum() {
		t.Fatal("snapshot CRC differs across restart")
	}
}

// TestCorruptStoredResultRecomputed: a snapshot corrupted on disk between
// restarts is quarantined at reopen, and the spec silently recomputes
// instead of serving bad bytes.
func TestCorruptStoredResultRecomputed(t *testing.T) {
	storeDir := t.TempDir()
	spec := sedovSpec(2)

	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 1, Store: st1})
	view, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, view.ID, StateCompleted, 60*time.Second)
	s1.Close()

	// Flip a byte in the middle of the stored snapshot, in its pack.
	m, ok := st1.Get(view.Hash)
	if !ok {
		t.Fatal("the completed job's result is not stored")
	}
	pack := filepath.Join(storeDir, "packs", fmt.Sprintf("%d.pack", m.Pack))
	raw, err := os.ReadFile(pack)
	if err != nil {
		t.Fatal(err)
	}
	raw[m.Off+m.Size/2] ^= 0xFF
	if err := os.WriteFile(pack, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Stats().Quarantined != 1 {
		t.Fatalf("quarantined %d, want 1", st2.Stats().Quarantined)
	}
	s2 := New(Options{Workers: 1, Store: st2})
	defer s2.Close()

	again, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("corrupt entry served as a cache hit")
	}
	final := waitState(t, s2, again.ID, StateCompleted, 60*time.Second)
	if final.Restarts != 0 {
		t.Fatalf("recompute restarted %d times", final.Restarts)
	}
	if _, ok := s2.Snapshot(again.ID); !ok {
		t.Fatal("recomputed job has no snapshot")
	}
}

// TestBatchSubmission: POST /v1/jobs/batch coalesces duplicates within the
// array and reports per-item errors without rejecting the batch.
func TestBatchSubmission(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	a := sedovSpec(50)
	a.Params.N = 1000
	a.Params.NNeighbors = 30
	b := a
	b.Steps = 60 // distinct job
	bad := scenario.JobSpec{Spec: scenario.Spec{Scenario: "warp-drive", Steps: 1}}

	items, err := c.SubmitBatch(ctx, []scenario.JobSpec{a, a, bad, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("batch returned %d items, want 4", len(items))
	}
	if items[0].Job == nil || items[1].Job == nil || items[3].Job == nil {
		t.Fatalf("valid specs missing jobs: %+v", items)
	}
	if items[0].Job.ID != items[1].Job.ID {
		t.Fatalf("duplicate specs did not coalesce: %s vs %s", items[0].Job.ID, items[1].Job.ID)
	}
	if items[3].Job.ID == items[0].Job.ID {
		t.Fatal("distinct specs coalesced")
	}
	if items[2].Error == "" || !strings.Contains(items[2].Error, "warp-drive") {
		t.Fatalf("bad spec item: %+v", items[2])
	}
	if items[2].Job != nil {
		t.Fatal("failed item carries a job")
	}

	_ = s.Cancel(items[0].Job.ID)
	_ = s.Cancel(items[3].Job.ID)

	// An empty batch is rejected whole.
	if _, err := c.SubmitBatch(ctx, nil); err == nil {
		t.Fatal("empty batch accepted")
	}

	// An over-limit array is rejected before any item is submitted.
	big := make([]scenario.JobSpec, MaxBatch+1)
	for i := range big {
		big[i] = a
	}
	if _, err := c.SubmitBatch(ctx, big); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if got := len(listAll(s)); got != 2 {
		t.Fatalf("job table has %d entries after rejected batch, want 2", got)
	}
}

// TestListStateFilter: the jobs listing filters by lifecycle state and
// rejects unknown states.
func TestListStateFilter(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	fast, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, fast.ID, StateCompleted, 60*time.Second)

	slow := sedovSpec(500)
	slow.Params.N = 1000
	slow.Params.NNeighbors = 30
	running, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning, 60*time.Second)

	all, err := c.Jobs(ctx, client.ListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Jobs) != 2 {
		t.Fatalf("unfiltered list has %d jobs, want 2", len(all.Jobs))
	}
	completed, err := c.Jobs(ctx, client.ListOptions{State: client.StateCompleted})
	if err != nil {
		t.Fatal(err)
	}
	if len(completed.Jobs) != 1 || completed.Jobs[0].ID != fast.ID {
		t.Fatalf("completed filter returned %+v", completed.Jobs)
	}
	runningList, err := c.Jobs(ctx, client.ListOptions{State: client.StateRunning})
	if err != nil {
		t.Fatal(err)
	}
	if len(runningList.Jobs) != 1 || runningList.Jobs[0].ID != running.ID {
		t.Fatalf("running filter returned %+v", runningList.Jobs)
	}
	cancelled, err := c.Jobs(ctx, client.ListOptions{State: client.StateCancelled})
	if err != nil {
		t.Fatal(err)
	}
	if len(cancelled.Jobs) != 0 {
		t.Fatalf("cancelled filter returned %+v", cancelled.Jobs)
	}
	if _, err := c.Jobs(ctx, client.ListOptions{State: "warp"}); err == nil {
		t.Fatal("unknown state filter accepted")
	}

	_ = s.Cancel(running.ID)
}

// TestJobTablePruning: terminal jobs older than JobTTL leave the job table,
// while their results stay addressable through the store (a resubmission is
// still a cache hit).
func TestJobTablePruning(t *testing.T) {
	clock := newTestClock()
	st, err := store.Open(t.TempDir(), store.Options{Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st, JobTTL: time.Hour, Clock: clock.now})
	defer s.Close()

	view, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)

	// Within the TTL the job is listed; past it, pruned.
	clock.advance(30 * time.Minute)
	if got := listAll(s); len(got) != 1 {
		t.Fatalf("list has %d jobs before TTL, want 1", len(got))
	}
	clock.advance(45 * time.Minute)
	if got := listAll(s); len(got) != 0 {
		t.Fatalf("list has %d jobs after TTL, want 0", len(got))
	}
	if _, ok := s.Get(view.ID); ok {
		t.Fatal("pruned job still resolvable by id")
	}

	// The result outlives the job record: same spec is still a cache hit.
	again, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("stored result lost when its job was pruned")
	}

	// A running job is never pruned, however old.
	slow := sedovSpec(500)
	slow.Params.N = 1000
	slow.Params.NNeighbors = 30
	run, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, run.ID, StateRunning, 60*time.Second)
	clock.advance(24 * time.Hour)
	views := listAll(s)
	for _, v := range views {
		if v.ID == run.ID {
			_ = s.Cancel(run.ID)
			return
		}
	}
	t.Fatalf("running job pruned: %+v", views)
}

// TestOversizedRecordIsGone: when the record exceeds the whole store byte
// budget, the store's own eviction drops it immediately. The completed job
// keeps its view; its snapshot, metrics, telemetry and trace answer 410
// gone, as an evicted result's do; nothing stays stored; and a
// resubmission recomputes.
func TestOversizedRecordIsGone(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{MaxBytes: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st})
	defer s.Close()

	view, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if v := waitState(t, s, view.ID, StateCompleted, 60*time.Second); v.Verify == nil || v.Telemetry == "" {
		t.Errorf("completed job's view lost its rollups: %+v", v)
	}
	if st.Stats().Entries != 0 {
		t.Fatalf("store retained %d entries over a 10-byte budget", st.Stats().Entries)
	}
	wantGone(t, s, view.ID)

	again, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("resubmission of an evicted record is a cache hit")
	}
	waitState(t, s, again.ID, StateCompleted, 60*time.Second)
}

// TestStoreEvictionSurfacesAsGone: a completed job whose result the store
// has evicted answers 410 gone on the snapshot, metrics, telemetry and
// trace endpoints, and a resubmission of the spec recomputes instead of
// cache-hitting.
func TestStoreEvictionSurfacesAsGone(t *testing.T) {
	clock := newTestClock()
	st, err := store.Open(t.TempDir(), store.Options{TTL: time.Hour, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st, Clock: clock.now})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	view, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	if _, err := c.Snapshot(ctx, view.ID); err != nil {
		t.Fatal(err)
	}

	clock.advance(2 * time.Hour)
	st.Sweep()
	for _, r := range []struct {
		name  string
		fetch func(context.Context, string) ([]byte, error)
	}{
		{"snapshot", c.Snapshot},
		{"metrics", c.RawMetrics},
		{"telemetry", c.RawTelemetry},
		{"trace", func(ctx context.Context, id string) ([]byte, error) { return c.RawJobTrace(ctx, id, "") }},
	} {
		_, err = r.fetch(ctx, view.ID)
		var apiErr *client.APIError
		if err == nil || !errors.As(err, &apiErr) || apiErr.Code != CodeGone {
			t.Fatalf("evicted %s fetch error %v, want gone envelope", r.name, err)
		}
	}

	again, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("evicted result served as a cache hit")
	}
	waitState(t, s, again.ID, StateCompleted, 60*time.Second)
	if _, err := c.Snapshot(ctx, again.ID); err != nil {
		t.Fatal(err)
	}
}
