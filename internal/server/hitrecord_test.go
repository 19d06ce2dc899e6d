package server

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCacheHitRecordBytes: a cache-hit resubmission keeps a record, not a
// job. Its id, its table entries and a small struct that points at the
// per-hash result it shares with every other hit of the hash stay live; no
// spec, progress, rollups, execution state or done channel of its own. The
// heap grows by at most 256 bytes per hit over 20,000 hits of one stored
// spec, measured after a full collection.
func TestCacheHitRecordBytes(t *testing.T) {
	const hits = 20_000
	s := New(Options{Store: tempStore(t), Workers: 1, HistoryInterval: -1})
	defer s.Close()
	spec := sedovSpec(2)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateCompleted, 60*time.Second)
	if v, err := s.Submit(spec); err != nil || !v.CacheHit {
		t.Fatalf("resubmission: %+v, %v; want a cache hit", v, err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range hits {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := s.jobsLen(); n != hits+2 {
		t.Fatalf("%d job records, want %d", n, hits+2)
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / hits
	t.Logf("%.0f live heap bytes per cache hit", per)
	if per > 256 {
		t.Errorf("a cache hit keeps %.0f heap bytes, want at most 256", per)
	}
}

// jobsLen is the job table's size.
func (s *Server) jobsLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs.lenLocked()
}

// TestHitRecordsUnderConcurrentTraffic: hit records share one closed done
// channel, so nothing may close it again. Hit submissions, SSE waits on hit
// ids, DELETEs of hit records and JobTTL pruning run at once; every hit's
// done channel is closed when its id is first seen, its event stream ends
// after one terminal frame (or 404s once the record is gone), and no close
// panics the server.
func TestHitRecordsUnderConcurrentTraffic(t *testing.T) {
	clock := newTestClock()
	s := New(Options{Store: tempStore(t), Workers: 1, HistoryInterval: -1,
		JobTTL: time.Minute, Clock: clock.now})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := sedovSpec(2)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateCompleted, 60*time.Second)

	const submitters, perSubmitter = 3, 60
	ids := make(chan string, submitters*perSubmitter)
	errs := make(chan error, 4*submitters*perSubmitter)
	var subs, readers sync.WaitGroup
	for range submitters {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for range perSubmitter {
				v, err := s.Submit(spec)
				if err != nil {
					errs <- err
					return
				}
				if !v.CacheHit || v.State != StateCompleted {
					errs <- fmt.Errorf("resubmission %s: state %s, cacheHit %v", v.ID, v.State, v.CacheHit)
				}
				ch, ok := s.Done(v.ID)
				if ok {
					select {
					case <-ch:
					default:
						errs <- fmt.Errorf("hit %s: done channel open", v.ID)
					}
				}
				ids <- v.ID
			}
		}()
	}
	// Pruning: the clock moves past JobTTL while hits keep registering, and
	// each listing prunes what finished before the cutoff.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for range 40 {
			clock.advance(10 * time.Second)
			s.ListPage("", "", MaxPageLimit)
			time.Sleep(time.Millisecond)
		}
	}()
	stream := func(id string) error {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			return nil // deleted or pruned before the wait began
		}
		frames := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				frames++
			}
		}
		if frames > 1 {
			return fmt.Errorf("hit %s: %d frames, want the terminal one", id, frames)
		}
		return sc.Err()
	}
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for id := range ids {
				start := time.Now()
				if err := stream(id); err != nil {
					errs <- err
				}
				if d := time.Since(start); d > 2*time.Second {
					errs <- fmt.Errorf("wait on hit %s took %v", id, d)
				}
				if err := s.DeleteJob(id); err != nil && !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("delete %s: %v", id, err)
				}
			}
		}()
	}
	subs.Wait()
	close(ids)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The server still serves, and the stored result is still a hit.
	if v, err := s.Submit(spec); err != nil || !v.CacheHit {
		t.Fatalf("after the traffic: %+v, %v; want a cache hit", v, err)
	}
}
