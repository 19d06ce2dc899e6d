package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// The read-path fault rows: what a snapshot GET answers when the stored
// object under a live entry is damaged or gone, and snapshot readers racing
// the writes of a byte-capped store.

// objectFile is where the store keeps the snapshot of hash: its pack file,
// and the snapshot's offset there.
func objectFile(t *testing.T, st *store.Store, storeDir, hash string) (string, int64) {
	t.Helper()
	m, ok := st.Get(hash)
	if !ok {
		t.Fatalf("no entry %s", hash)
	}
	return filepath.Join(storeDir, "packs", fmt.Sprintf("%d.pack", m.Pack)), m.Off
}

// fetchSnapshot GETs a job's snapshot and returns the status, the body and
// whether the body was cut short of its Content-Length (or the request
// failed outright, status 0).
func fetchSnapshot(ts *httptest.Server, id string) (status int, body []byte, short bool) {
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/snapshot")
	if err != nil {
		return 0, nil, true
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err != nil || int64(len(body)) != resp.ContentLength
}

// TestFlippedSnapshotByteNeverServed: one byte flipped at the first, a
// middle and the last offset of a stored snapshot, for one that fits a
// single read chunk (N=216, what serve-warm serves) and one that spans two
// (N=1000, the smallest lattice past 64 KiB at 88 B a particle). The GET never answers 200 with a full body: a one-chunk object
// gets 410 before any byte is sent, a two-chunk one an aborted response
// whose body stops short of its Content-Length. Each time the entry is
// quarantined and the next submit recomputes the same bytes.
func TestFlippedSnapshotByteNeverServed(t *testing.T) {
	for _, n := range []int{216, 1000} {
		spec := sedovSpec(1)
		spec.Params.N = n
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Workers: 1, Store: st})
		ts := httptest.NewServer(s.Handler())
		view, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, view.ID, StateCompleted, 60*time.Second)
		want, ok := s.Snapshot(view.ID)
		if !ok {
			t.Fatal("completed job has no snapshot")
		}
		chunked := len(want) > 64<<10
		if chunked != (n == 1000) {
			t.Fatalf("N=%d snapshot is %d bytes: the case no longer covers what it is named for", n, len(want))
		}
		for i, off := range []int{0, len(want) / 2, len(want) - 1} {
			path, at := objectFile(t, st, dir, view.Hash)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[at+int64(off)] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			switch status, _, short := fetchSnapshot(ts, view.ID); {
			case status == http.StatusOK && !short:
				t.Errorf("N=%d, byte %d flipped: 200 with a full body", n, off)
			case !chunked && status != http.StatusGone:
				t.Errorf("N=%d, byte %d flipped: status %d, want 410 before any byte", n, off, status)
			case chunked && !short:
				t.Errorf("N=%d, byte %d flipped: status %d with a whole body, want an aborted response", n, off, status)
			}
			if q := st.Stats().Quarantined; q != i+1 {
				t.Errorf("N=%d, byte %d flipped: %d objects quarantined, want %d", n, off, q, i+1)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", view.Hash+".sph")); err != nil {
				t.Errorf("N=%d, byte %d flipped: no quarantined object: %v", n, off, err)
			}
			again, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if again.CacheHit {
				t.Fatalf("N=%d, byte %d flipped: the quarantined result was a cache hit", n, off)
			}
			waitState(t, s, again.ID, StateCompleted, 60*time.Second)
			if got, ok := s.Snapshot(again.ID); !ok || !bytes.Equal(got, want) {
				t.Errorf("N=%d, byte %d flipped: the recompute serves other bytes (ok=%v)", n, off, ok)
			}
			view = again
		}
		ts.Close()
		s.Close()
	}
}

// TestSnapshotLostUnderLiveEntryIsAMiss: a pack that disappears
// while its entry is live — after the lookup that found it, before the read
// — is a miss, not a quarantine: 410, nothing in quarantine/, the entry
// gone, and the next submit recomputes.
func TestSnapshotLostUnderLiveEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	view, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	if path, _ := objectFile(t, st, dir, view.Hash); os.Remove(path) != nil {
		t.Fatal("cannot remove the pack")
	}
	if status, _, _ := fetchSnapshot(ts, view.ID); status != http.StatusGone {
		t.Errorf("lost object: status %d, want 410", status)
	}
	if q := st.Stats().Quarantined; q != 0 {
		t.Errorf("a lost object was counted as %d quarantined", q)
	}
	if _, ok := st.Get(view.Hash); ok {
		t.Error("the entry of a lost object is still live")
	}
	again, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("a lost object was a cache hit")
	}
	waitState(t, s, again.ID, StateCompleted, 60*time.Second)
}

// TestSnapshotReadersBesidePutsUnderCap: snapshot GETs from several clients
// while jobs complete into a store capped at about two records (measured
// on an unbounded store first), so each write's eviction pass removes files
// that readers are looking up or reading. Every answer is 200 with the job's whole
// snapshot, byte for byte, or 410; no read quarantines a sound object.
// Run under -race -count=10.
func TestSnapshotReadersBesidePutsUnderCap(t *testing.T) {
	free, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: free})
	view, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	s.Close()
	record := free.Stats().Bytes
	st, err := store.Open(t.TempDir(), store.Options{MaxBytes: 2*record + record/4})
	if err != nil {
		t.Fatal(err)
	}
	s = New(Options{Workers: 2, Store: st})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := map[string][]byte{}
	var ids []string
	for steps := 1; steps <= 3; steps++ {
		view, err := s.Submit(sedovSpec(steps))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, view.ID, StateCompleted, 60*time.Second)
		snap, ok := s.Snapshot(view.ID)
		if !ok {
			t.Fatalf("job %s has no snapshot right after completing", view.ID)
		}
		want[view.ID] = snap
		ids = append(ids, view.ID)
	}
	if n := st.Stats().Entries; n != 2 {
		t.Fatalf("a cap of %d bytes keeps %d of three records, want 2: no eviction pressure", 2*record+record/4, n)
	}

	done := make(chan struct{})
	var reads atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := ids[i%len(ids)]
				status, body, short := fetchSnapshot(ts, id)
				reads.Add(1)
				if status == http.StatusGone {
					continue
				}
				if status != http.StatusOK || short || !bytes.Equal(body, want[id]) {
					t.Errorf("job %s: status %d, %d bytes (short %v), want 410 or the whole snapshot", id, status, len(body), short)
					return
				}
			}
		}()
	}
	// At least three writes, and as many more (up to 40) as it takes for the
	// readers to have made 60 requests between them.
	for steps := 4; steps <= 6 || reads.Load() < 60 && steps <= 40; steps++ {
		view, err := s.Submit(sedovSpec(steps))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	}
	close(done)
	readers.Wait()

	if q := st.Stats().Quarantined; q != 0 {
		t.Errorf("concurrent reads quarantined %d sound objects", q)
	}
	if st.Stats().Evictions == 0 {
		t.Error("no eviction happened: the cap did not make the writes race the reads")
	}
}
