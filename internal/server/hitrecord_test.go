package server

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
)

// TestCacheHitRecordBytes: a cache-hit resubmission keeps a record, not a
// job, and repeated hits of one hash share it. 20,000 hits of one stored
// spec leave two records (the run and one hit record) and no heap growth.
// A hit of a distinct hash registers its own record: its id, its table
// entries and a small struct that points at the per-hash result, no spec,
// progress, rollups, execution state or done channel of its own. Over hits
// of 20,000 distinct hashes whose results are already in the memory layer
// (metadata) and the store (a record each), the heap grows by at most 256
// bytes per record, measured after a full collection.
func TestCacheHitRecordBytes(t *testing.T) {
	const hits = 20_000
	st := tempStore(t)
	s := New(Options{Store: st, Workers: 1, HistoryInterval: -1})
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

	growth := func(submit func(i int)) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range hits {
			submit(i)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / hits
	}
	per := growth(func(int) {
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	})
	if n := s.jobsLen(); n != 2 {
		t.Fatalf("%d job records after %d hits of one spec, want 2", n, hits)
	}
	t.Logf("%.1f live heap bytes per repeated hit", per)
	if per > 8 {
		t.Errorf("a repeated hit keeps %.1f heap bytes, want about 0", per)
	}

	for i := range hits {
		cspec, hash, err := sedovSpec(3 + i).CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(store.Meta{Hash: hash}, []byte{0}); err != nil {
			t.Fatal(err)
		}
		s.mu.Lock()
		s.jobs.cacheLocked(hash, &cachedResult{spec: cspec, hash: hash})
		s.mu.Unlock()
	}
	per = growth(func(i int) {
		if v, err := s.Submit(sedovSpec(3 + i)); err != nil || !v.CacheHit {
			t.Fatalf("hit %d: %+v, %v; want a cache hit", i, v, err)
		}
	})
	if n := s.jobsLen(); n != hits+2 {
		t.Fatalf("%d job records, want %d", n, hits+2)
	}
	t.Logf("%.0f live heap bytes per hit record", per)
	if per > 256 {
		t.Errorf("a hit record keeps %.0f heap bytes, want at most 256", per)
	}
}

// cachedLenLocked counts the table's memory-layer results.
func (t *table[R, C]) cachedLenLocked() (n int) {
	for _, e := range t.hashes {
		if e.cached {
			n++
		}
	}
	return n
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

// TestHitRecordsCoalesce: repeated hits of a hash share one hit record, the
// way identical submissions share an active job. Its lifetime restarts at
// each hit; a DELETE or a JobTTL prune forgets it, and the next hit
// registers a new id that is still a cache hit. A hit never takes the id of
// the job that computed the result, and a derived kind coalesces the same
// way.
func TestHitRecordsCoalesce(t *testing.T) {
	const ttl = time.Minute
	clock := newTestClock()
	s := New(Options{Store: tempStore(t), Workers: 2, HistoryInterval: -1,
		JobTTL: ttl, Clock: clock.now})
	defer s.Close()

	spec := sedovSpec(2)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateCompleted, 60*time.Second)
	hit := func() JobView {
		t.Helper()
		v, err := s.Submit(spec)
		if err != nil || !v.CacheHit || v.State != StateCompleted {
			t.Fatalf("resubmission: %+v, %v; want a completed cache hit", v, err)
		}
		if _, ok := s.Get(v.ID); !ok {
			t.Fatalf("resubmission returned %s, which is not in the table", v.ID)
		}
		return *v
	}
	hitEntry := func() (string, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		e := s.jobs.hashes[first.Hash]
		if e == nil || e.hit == nil {
			return "", false
		}
		return e.hit.ID, true
	}

	a := hit()
	if a.ID == first.ID {
		t.Fatalf("a hit took the id %s of the job that computed the result", a.ID)
	}
	for range 3 {
		if v := hit(); v.ID != a.ID {
			t.Fatalf("repeated hit registered %s, want %s", v.ID, a.ID)
		}
	}

	if err := s.DeleteJob(a.ID); err != nil {
		t.Fatal(err)
	}
	if id, ok := hitEntry(); ok {
		t.Fatalf("deleted hit record %s is still its hash's hit entry (%s)", a.ID, id)
	}
	b := hit()
	if b.ID == a.ID || b.ID == first.ID {
		t.Fatalf("hit after DELETE of %s returned %s", a.ID, b.ID)
	}

	// A hit inside JobTTL keeps the record alive past its first deadline.
	clock.advance(ttl * 2 / 3)
	if v := hit(); v.ID != b.ID {
		t.Fatalf("hit inside JobTTL registered %s, want %s", v.ID, b.ID)
	}
	clock.advance(ttl * 2 / 3)
	s.ListPage("", "", 1)
	if _, ok := s.Get(first.ID); ok {
		t.Fatalf("job %s outlived JobTTL", first.ID)
	}
	if _, ok := s.Get(b.ID); !ok {
		t.Fatalf("hit record %s pruned although hit within JobTTL", b.ID)
	}

	// JobTTL passes with no hit: the record and its hit entry both go.
	clock.advance(ttl)
	s.ListPage("", "", 1)
	if _, ok := s.Get(b.ID); ok {
		t.Fatalf("hit record %s outlived JobTTL without a hit", b.ID)
	}
	if id, ok := hitEntry(); ok {
		t.Fatalf("pruned hash still has hit entry %s", id)
	}
	if c := hit(); c.ID == b.ID || c.ID == a.ID {
		t.Fatalf("hit after the prune returned the forgotten id %s", c.ID)
	}

	sweep := sedovSweep(2, 216, 512, 1000)
	exp, err := s.Experiments.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitExperiment(t, s, exp.ID, 120*time.Second); v.State != StateCompleted {
		t.Fatalf("experiment ended %s: %s", v.State, v.Error)
	}
	var ids []string
	for range 2 {
		v, err := s.Experiments.Submit(sweep)
		if err != nil || !v.CacheHit || v.State != StateCompleted {
			t.Fatalf("experiment resubmission: %+v, %v; want a completed cache hit", v, err)
		}
		ids = append(ids, v.ID)
	}
	if ids[0] == exp.ID || ids[1] != ids[0] {
		t.Fatalf("experiment %s resubmitted twice: ids %v, want one hit id of their own", exp.ID, ids)
	}
}

// TestPruneCostFlatInTableSize: with JobTTL at a week nothing in the table
// can have expired, so neither a Submit nor a listing may walk the table,
// and when one record expires per call, the prune pops that one record off
// the expiry order. A hit Submit plus a one-record listing costs about the
// same at 30,000 terminal records as at 1,000. Walking all four tables on
// every call, as pruning did before its watermark, measured 0.10 ms and
// 6.5 ms; walking the job table once per expiry, as pruning did before its
// expiry order, 11.7 ms at 30,000.
func TestPruneCostFlatInTableSize(t *testing.T) {
	const ttl = 168 * time.Hour
	for _, c := range []struct {
		name string
		// tick is how far the clock moves per op. The fill records of the
		// expiring case are a millisecond apart, the first one JobTTL old,
		// so each op expires one.
		tick time.Duration
	}{{"nothing-expires", 0}, {"one-expires-per-op", time.Millisecond}} {
		t.Run(c.name, func(t *testing.T) {
			clock := newTestClock()
			s := New(Options{Store: tempStore(t), Workers: 1, HistoryInterval: -1,
				JobTTL: ttl, Clock: clock.now})
			defer s.Close()
			spec := sedovSpec(2)
			first, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, s, first.ID, StateCompleted, 60*time.Second)

			// fill registers hit records of distinct hashes up to records in
			// all.
			stamp := clock.now()
			if c.tick > 0 {
				stamp = stamp.Add(-ttl)
			}
			fill := func(records int) {
				s.mu.Lock()
				defer s.mu.Unlock()
				run, _ := s.jobs.getLocked(first.ID)
				for i := s.jobs.lenLocked(); i < records; i++ {
					stamp = stamp.Add(c.tick)
					s.jobs.registerLocked(&Job{record: hitRecord(fmt.Sprintf("fill-%d-%d", records, i), stamp), res: run.res})
				}
			}
			// perOp is the fastest of five rounds, so a collection or a
			// descheduled round does not count.
			perOp := func() time.Duration {
				const ops = 100
				best := time.Duration(math.MaxInt64)
				for range 5 {
					start := time.Now()
					for range ops {
						clock.advance(c.tick)
						if v, err := s.Submit(spec); err != nil || !v.CacheHit {
							t.Fatalf("resubmission: %+v, %v; want a cache hit", v, err)
						}
						s.ListPage("", "", 1)
					}
					best = min(best, time.Since(start)/ops)
				}
				return best
			}
			fill(1_000)
			small := perOp()
			fill(30_000)
			large := perOp()
			t.Logf("Submit + ListPage: %v at 1,000 records, %v at 30,000 (%d left)", small, large, s.jobsLen())
			if large > 4*small {
				t.Errorf("Submit + ListPage cost %v at 30,000 records, %v at 1,000: it grows with the table", large, small)
			}
		})
	}
}

// TestListCursorCostFlat: a listing finds its cursor by binary search, so
// one page after a cursor near the end of 30,000 records costs about what
// one after the first record does (walking the table from its start to the
// cursor measured 2.4 ms against 0.5 µs).
func TestListCursorCostFlat(t *testing.T) {
	s := New(Options{Store: tempStore(t), Workers: 1, HistoryInterval: -1})
	defer s.Close()
	var ids []string
	s.mu.Lock()
	for i := range 30_000 {
		rec := s.jobs.registerLocked(&Job{record: hitRecord(fmt.Sprintf("fill-%d", i), time.Now()),
			res: &cachedResult{}})
		ids = append(ids, rec.ID)
	}
	s.mu.Unlock()
	perOp := func(cursor, want string) time.Duration {
		const ops = 100
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			for range ops {
				if page, _ := s.ListPage("", cursor, 1); len(page) != 1 || page[0].ID != want {
					t.Fatalf("page after %s: %+v, want %s", cursor, page, want)
				}
			}
			best = min(best, time.Since(start)/ops)
		}
		return best
	}
	near := len(ids) - 10
	start, end := perOp(ids[0], ids[1]), perOp(ids[near], ids[near+1])
	t.Logf("one page after the first record %v, after the %dth %v", start, near+1, end)
	if end > 4*start {
		t.Errorf("a cursor near the end costs %v, at the start %v: the listing walks to its cursor", end, start)
	}
}
