package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// coldSpec is the i-th of a family of distinct tiny sedov jobs: the shape
// of the serve-cold benchmark workload (216 particles, 2 steps, 4 cores).
func coldSpec(i int) scenario.JobSpec {
	spec := sedovSpec(2)
	spec.Params.Extra = map[string]float64{"energy": 1 + float64(i)*1e-6}
	return spec
}

// runCold submits coldSpec(from) … coldSpec(to-1) one at a time and waits
// for each to complete.
func runCold(t *testing.T, s *Server, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		v, err := s.Submit(coldSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		if v.CacheHit {
			t.Fatalf("job %d was a cache hit", i)
		}
		waitState(t, s, v.ID, StateCompleted, 60*time.Second)
	}
}

// TestCompletedJobBytes: a completed run keeps its record, a pointer to its
// hash's shared result and the few scalars its view reads; its execution
// state (spec copy, flight recorder, spans) is released, and the snapshot,
// report and track bytes live in the store alone — or nowhere, when the
// store refuses the record (packs/ a plain file). Over 300 distinct
// computed jobs the live heap grows by at most 2.5 KiB per job on either
// store, measured after a full collection: neither a completed job's
// execution nor a result's bytes stay in memory.
func TestCompletedJobBytes(t *testing.T) {
	const jobs = 300
	for _, refusing := range []bool{false, true} {
		t.Run(map[bool]string{false: "stored", true: "refused"}[refusing], func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if refusing {
				// The store creates packs/ on first use; a plain file in its
				// place fails every record write.
				if err := os.WriteFile(filepath.Join(dir, "packs"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s := New(Options{Store: st, Workers: 2, HistoryInterval: -1})
			defer s.Close()
			runCold(t, s, 0, 20) // lazy set-up: pools, shared profiles, map growth

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			runCold(t, s, 20, 20+jobs)
			runtime.GC()
			runtime.ReadMemStats(&after)
			if n := st.Stats().Entries; refusing != (n == 0) {
				t.Fatalf("the store holds %d entries", n)
			}
			per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / jobs
			t.Logf("%.0f live heap bytes per completed job", per)
			if per > 2560 {
				t.Errorf("a completed job keeps %.0f heap bytes, want at most 2,560", per)
			}
		})
	}
}

// lastFrame reads an event stream to its end and returns its last data
// frame.
func lastFrame(ts *httptest.Server, path string) ([]byte, error) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if b, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: ")); ok {
			last = append([]byte(nil), b...)
		}
	}
	if last == nil {
		return nil, fmt.Errorf("GET %s: no frame (%v)", path, sc.Err())
	}
	return last, nil
}

// terminalFrames follows a job's /events and /telemetry/events streams to
// their ends.
func terminalFrames(ts *httptest.Server, id string) (events, telemetry []byte, err error) {
	if events, err = lastFrame(ts, "/v1/jobs/"+id+"/events"); err != nil {
		return nil, nil, err
	}
	telemetry, err = lastFrame(ts, "/v1/jobs/"+id+"/telemetry/events")
	return events, telemetry, err
}

// TestCompletedJobWire: what a completed job serves is what its run
// produced, wherever it now lives. For the job that computed the result and
// for a later cache hit of it, /metrics and /telemetry are the stored
// report and track bytes and /trace is rendered from them; the computed
// job's view carries the run's last dt, its restarts and its watchdog
// status, its last /telemetry/events frame the track's last sample, and
// the last /events frame of either job is its view. A hit's view has no dt
// and its telemetry frame no sample, as before.
func TestCompletedJobWire(t *testing.T) {
	st := tempStore(t)
	s := New(Options{Store: st, Workers: 1, HistoryInterval: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s (%v)", path, resp.StatusCode, b, err)
		}
		return b
	}

	computed, err := s.Submit(sedovSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	type streams struct {
		events, telemetry []byte
		err               error
	}
	live := make(chan streams, 1)
	go func() {
		var out streams
		out.events, out.telemetry, out.err = terminalFrames(ts, computed.ID)
		live <- out
	}()
	waitState(t, s, computed.ID, StateCompleted, 60*time.Second)
	hit, err := s.Submit(sedovSpec(3))
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmission: %+v, %v; want a cache hit", hit, err)
	}

	report, ok := st.ReadReport(computed.Hash)
	if !ok {
		t.Fatal("no stored report")
	}
	track, ok := st.ReadTelemetry(computed.Hash)
	if !ok {
		t.Fatal("no stored track")
	}
	var raw struct{ Samples []json.RawMessage }
	if err := json.Unmarshal(track, &raw); err != nil || len(raw.Samples) == 0 {
		t.Fatalf("stored track %s: %v", track, err)
	}
	tk := decodeTrack(t, track)
	lastSample := tk.Samples[len(tk.Samples)-1]
	trace, err := renderTrace(computed.Spec, computed.Hash, TraceFormatPerfetto, report, track)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		id   string
		dt   float64
		// sample is the last /telemetry/events frame's sample; nil for none.
		sample json.RawMessage
		frames func() streams
	}{
		{"computed", computed.ID, lastSample.DT, raw.Samples[len(raw.Samples)-1], func() streams { return <-live }},
		{"hit", hit.ID, 0, nil, func() (out streams) {
			out.events, out.telemetry, out.err = terminalFrames(ts, hit.ID)
			return out
		}},
	} {
		base := "/v1/jobs/" + c.id
		for _, r := range []struct {
			path string
			want []byte
		}{{"/metrics", report}, {"/telemetry", track}, {"/trace", trace}} {
			if got := get(base + r.path); !bytes.Equal(got, r.want) {
				t.Errorf("%s %s: served bytes differ from the stored result's\n got %s\nwant %s", c.name, r.path, got, r.want)
			}
		}

		var view bytes.Buffer
		if err := json.Compact(&view, get(base)); err != nil {
			t.Fatal(err)
		}
		viewBytes := view.Bytes()
		var v JobView
		if err := json.Unmarshal(viewBytes, &v); err != nil {
			t.Fatal(err)
		}
		want := Progress{Step: 3, Total: 3, SimTime: lastSample.Time, DT: c.dt}
		if v.Progress != want || v.Restarts != 0 || v.Telemetry != tk.Status {
			t.Errorf("%s view: progress %+v, restarts %d, telemetry %q; want %+v, 0, %q",
				c.name, v.Progress, v.Restarts, v.Telemetry, want, tk.Status)
		}

		frames := c.frames()
		if frames.err != nil {
			t.Fatal(frames.err)
		}
		if !bytes.Equal(frames.events, viewBytes) {
			t.Errorf("%s: last /events frame\n%s\nis not its view\n%s", c.name, frames.events, viewBytes)
		}
		var ev struct {
			Job, State, Telemetry string
			Sample                json.RawMessage
		}
		if err := json.Unmarshal(frames.telemetry, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Job != c.id || ev.State != string(StateCompleted) || ev.Telemetry != tk.Status || !bytes.Equal(ev.Sample, c.sample) {
			t.Errorf("%s: last /telemetry/events frame %s, want job %s completed, telemetry %q, sample %s",
				c.name, frames.telemetry, c.id, tk.Status, c.sample)
		}
	}
}

// TestCompletedFrameFollowsTheTrack: a computed job's last
// /telemetry/events frame carries the last sample of its hash's track
// while the store holds the track, and no sample once the track is held
// nowhere — when its /telemetry answers 410 gone.
func TestCompletedFrameFollowsTheTrack(t *testing.T) {
	clock := newTestClock()
	st, err := store.Open(t.TempDir(), store.Options{TTL: time.Hour, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st, Clock: clock.now, HistoryInterval: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	view, err := s.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	track, ok := st.ReadTelemetry(view.Hash)
	if !ok {
		t.Fatal("no stored track")
	}
	var raw struct{ Samples []json.RawMessage }
	if err := json.Unmarshal(track, &raw); err != nil || len(raw.Samples) == 0 {
		t.Fatalf("stored track %s: %v", track, err)
	}
	frameSample := func() json.RawMessage {
		t.Helper()
		b, err := lastFrame(ts, "/v1/jobs/"+view.ID+"/telemetry/events")
		if err != nil {
			t.Fatal(err)
		}
		var ev struct {
			State  JobState
			Sample json.RawMessage
		}
		if err := json.Unmarshal(b, &ev); err != nil || ev.State != StateCompleted {
			t.Fatalf("frame %s (%v), want a completed job's", b, err)
		}
		return ev.Sample
	}
	if got, want := frameSample(), raw.Samples[len(raw.Samples)-1]; !bytes.Equal(got, want) {
		t.Errorf("stored track: frame sample %s, want the track's last %s", got, want)
	}

	clock.advance(2 * time.Hour)
	st.Sweep()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + view.ID + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("evicted track: /telemetry %d, want 410", resp.StatusCode)
	}
	if got := frameSample(); got != nil {
		t.Errorf("evicted track: frame sample %s, want none", got)
	}
}

// TestDerivedMembersReadTheStore: a derived resource's collector reads each
// member's report from the store, which holds the only copy. Held before it
// reads any, every member's result is in the memory layer as metadata
// (which holds no bytes) and in the store; released, the sweep's result is
// the bytes an ungated run of it yields on a fresh store. A member whose
// stored record is evicted before the collector reads it fails the record,
// naming the member's job and that its result is no longer in the result
// store, and resubmitting the sweep recomputes that member and completes.
func TestDerivedMembersReadTheStore(t *testing.T) {
	sweep := sedovSweep(2, 150, 300)
	fresh := New(Options{Store: tempStore(t), Workers: 2, HistoryInterval: -1})
	defer fresh.Close()
	ref, err := fresh.Experiments.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	want := waitExperiment(t, fresh, ref.ID, 60*time.Second)
	if want.State != StateCompleted {
		t.Fatalf("reference experiment ended %s: %s", want.State, want.Error)
	}

	clock := newTestClock()
	st, err := store.Open(t.TempDir(), store.Options{TTL: time.Hour, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Store: st, Workers: 2, HistoryInterval: -1, Clock: clock.now})
	defer s.Close()
	// held submits the sweep, calls at while the collector is held before
	// it reads any member report, releases it and returns the terminal view.
	held := func(at func(exp *ExperimentView)) ExperimentView {
		t.Helper()
		gate := newAggregateGate()
		gateAggregate(&s.Experiments, gate)
		exp, err := s.Experiments.Submit(sweep)
		if err != nil {
			t.Fatal(err)
		}
		<-gate.entered
		at(exp)
		close(gate.release)
		return waitExperiment(t, s, exp.ID, 60*time.Second)
	}

	got := held(func(exp *ExperimentView) {
		for _, m := range exp.Members {
			s.mu.Lock()
			_, cached := s.jobs.cachedLocked(m.Hash)
			s.mu.Unlock()
			if _, stored := st.Get(m.Hash); !cached || !stored {
				t.Errorf("member %s before its collector read it: metadata cached %v, record stored %v; want both",
					m.JobID, cached, stored)
			}
		}
	})
	if got.State != StateCompleted || !bytes.Equal(got.Result, want.Result) {
		t.Fatalf("experiment ended %s (%s), result identical to a fresh store's %v",
			got.State, got.Error, bytes.Equal(got.Result, want.Result))
	}

	// Another sweep, with its second member's record expired while the
	// collector is held: the first is read just before, so only the second
	// is idle past the TTL.
	sweep = sedovSweep(3, 150, 300)
	var lost string
	failed := held(func(exp *ExperimentView) {
		clock.advance(50 * time.Minute)
		st.Get(exp.Members[0].Hash)
		clock.advance(20 * time.Minute)
		st.Sweep()
		if _, ok := st.Get(exp.Members[1].Hash); ok {
			t.Fatalf("member %s still stored after the sweep", exp.Members[1].JobID)
		}
		lost = exp.Members[1].JobID
	})
	if failed.State != StateFailed || !strings.Contains(failed.Error, "member job "+lost+" ") ||
		!strings.Contains(failed.Error, "no longer in the result store") {
		t.Fatalf("experiment over an evicted member ended %s: %q; want failed naming %s", failed.State, failed.Error, lost)
	}

	again, err := s.Experiments.Submit(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit || again.Members[1].JobID == lost {
		t.Fatalf("resubmission: cacheHit %v, member job %s; want a new run of the evicted member", again.CacheHit, again.Members[1].JobID)
	}
	if v := waitExperiment(t, s, again.ID, 60*time.Second); v.State != StateCompleted {
		t.Fatalf("resubmission ended %s: %s", v.State, v.Error)
	}
}

// TestStoredResultReadsOneRegion: once the memory layer has dropped a stored
// job's report and track, one GET …/telemetry reads the store's track region
// alone and one GET …/metrics its report region alone; /trace reads both.
// The counting reads are installed before the server starts, so its
// goroutines see them.
func TestStoredResultReadsOneRegion(t *testing.T) {
	var reads atomic.Int64
	defer func(r, k func(*store.Store, string) ([]byte, bool)) { readReport, readTelemetry = r, k }(readReport, readTelemetry)
	counted := func(read func(*store.Store, string) ([]byte, bool)) func(*store.Store, string) ([]byte, bool) {
		return func(st *store.Store, hash string) ([]byte, bool) {
			reads.Add(1)
			return read(st, hash)
		}
	}
	readReport, readTelemetry = counted(readReport), counted(readTelemetry)

	s := New(Options{Store: tempStore(t), Workers: 1, HistoryInterval: -1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	v, err := s.Submit(coldSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateCompleted, 60*time.Second)
	for _, c := range []struct {
		path string
		want int64
	}{{"/telemetry", 1}, {"/metrics", 1}, {"/trace", 2}} {
		before := reads.Load()
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + v.ID + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("GET %s: %d, %d bytes", c.path, resp.StatusCode, len(body))
		}
		if got := reads.Load() - before; got != c.want {
			t.Errorf("GET %s read %d store regions, want %d", c.path, got, c.want)
		}
	}
}
