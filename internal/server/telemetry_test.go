package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/part"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// decodeTrack unmarshals a flight-recorder track and sanity-checks the
// series shape shared by every telemetry test.
func decodeTrack(t *testing.T, b []byte) telemetry.Track {
	t.Helper()
	var track telemetry.Track
	if err := json.Unmarshal(b, &track); err != nil {
		t.Fatalf("track is not valid JSON: %v\n%s", err, b)
	}
	for i := 1; i < len(track.Samples); i++ {
		if track.Samples[i].Step <= track.Samples[i-1].Step {
			t.Fatalf("track steps not strictly ascending at %d: %+v", i, track.Samples)
		}
	}
	return track
}

// TestTelemetryTrackRecordedOnBothBackends: a completed job carries a full
// flight-recorder track — first sample is step 1, last is the final step,
// conservation drifts and dt are populated, and the watchdog rollup is
// clean on a healthy run. Both engine backends feed the same recorder.
func TestTelemetryTrackRecordedOnBothBackends(t *testing.T) {
	for _, backend := range []string{scenario.BackendParallel, scenario.BackendSerial} {
		t.Run(backend, func(t *testing.T) {
			s := New(Options{Workers: 1, Store: tempStore(t)})
			defer s.Close()
			spec := sedovSpec(4)
			spec.Exec = scenario.Exec{Backend: backend}
			view, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			final := waitState(t, s, view.ID, StateCompleted, 60*time.Second)
			if final.Telemetry != telemetry.StatusOK {
				t.Fatalf("job telemetry rollup %q, want %q", final.Telemetry, telemetry.StatusOK)
			}

			b, ok := s.Telemetry(view.ID)
			if !ok || b == nil {
				t.Fatal("completed job has no telemetry track")
			}
			track := decodeTrack(t, b)
			if track.Status != telemetry.StatusOK || len(track.Trips) != 0 {
				t.Fatalf("healthy run track status=%q trips=%v", track.Status, track.Trips)
			}
			if len(track.Samples) != 4 {
				t.Fatalf("got %d samples, want 4 (stride 1): %+v", len(track.Samples), track)
			}
			if track.Samples[0].Step != 1 || track.Samples[3].Step != 4 {
				t.Fatalf("sample endpoints %d..%d, want 1..4",
					track.Samples[0].Step, track.Samples[3].Step)
			}
			for _, smp := range track.Samples {
				if smp.DT <= 0 || smp.Time <= 0 {
					t.Fatalf("sample missing dt/time: %+v", smp)
				}
				if smp.HMin <= 0 || smp.HMax < smp.HMin {
					t.Fatalf("sample smoothing-length extrema: %+v", smp)
				}
				if smp.NbrMax < smp.NbrMin || smp.NbrMean <= 0 {
					t.Fatalf("sample neighbor stats: %+v", smp)
				}
				if len(smp.Phases) == 0 {
					t.Fatalf("sample missing phase timings: %+v", smp)
				}
			}
		})
	}
}

// TestTelemetryByteIdenticalAcrossKillResumeAndRestart is the tentpole
// acceptance check: a job killed mid-run resumes from its checkpoint, and
// the telemetry track persisted at completion is served byte-identically on
// a cache-hit resubmission — in the same process and through a server
// restart over the same store.
func TestTelemetryByteIdenticalAcrossKillResumeAndRestart(t *testing.T) {
	storeDir := t.TempDir()
	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 1, Store: st1})

	spec := sedovSpec(40)
	spec.Params.N = 1000
	spec.Params.NNeighbors = 30
	view, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the job after it has progressed past at least one checkpoint.
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, _ := s1.Get(view.ID)
		if v.State == StateRunning && v.Progress.Step >= 11 {
			break
		}
		if v.State == StateCompleted || v.State == StateFailed {
			t.Fatalf("job finished before it could be killed: %+v", v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never progressed: %+v", v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s1.Kill(view.ID); err != nil {
		t.Fatalf("kill: %v", err)
	}
	final := waitState(t, s1, view.ID, StateCompleted, 120*time.Second)
	if final.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", final.Restarts)
	}

	track1, ok := s1.Telemetry(view.ID)
	if !ok || track1 == nil {
		t.Fatal("no telemetry track after kill/resume completion")
	}
	// The resumed run's track must look exactly like an uninterrupted one:
	// contiguous steps 1..40, no duplicated or missing samples around the
	// checkpoint boundary.
	track := decodeTrack(t, track1)
	if len(track.Samples) != 40 {
		t.Fatalf("resumed track has %d samples, want 40", len(track.Samples))
	}
	if track.Samples[0].Step != 1 || track.Samples[39].Step != 40 {
		t.Fatalf("resumed track endpoints %d..%d, want 1..40",
			track.Samples[0].Step, track.Samples[39].Step)
	}

	// Same server, resubmitted: instant cache hit, identical bytes, and the
	// watchdog rollup rides along on the view.
	again, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}
	if again.Telemetry != telemetry.StatusOK {
		t.Fatalf("cache-hit view telemetry %q, want %q", again.Telemetry, telemetry.StatusOK)
	}
	track2, ok := s1.Telemetry(again.ID)
	if !ok || !bytes.Equal(track1, track2) {
		t.Fatal("cache-hit track differs from the original bytes")
	}
	s1.Close()

	// Fresh server over the same store: the hit crosses the restart and the
	// bytes still match.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 1, Store: st2})
	defer s2.Close()
	view3, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !view3.CacheHit {
		t.Fatal("post-restart resubmission was not a cache hit")
	}
	track3, ok := s2.Telemetry(view3.ID)
	if !ok || !bytes.Equal(track1, track3) {
		t.Fatalf("post-restart track differs from the original bytes:\nfirst: %s\nafter: %s", track1, track3)
	}
}

// TestNaNInjectionTripsWatchdog is the fault-injection acceptance check: a
// NaN seeded into the particle state mid-run trips the nan watchdog, marks
// the job's telemetry rollup, increments the per-kind counter, and stamps
// the persisted track.
func TestNaNInjectionTripsWatchdog(t *testing.T) {
	s := New(Options{
		Store:   tempStore(t),
		Workers: 1,
		// Poison one particle's internal energy right after the final step
		// completes (so the dynamics stay finite and the job still passes
		// through verification and completion).
		FaultInjection: func(step int, ps *part.Set) {
			if step == 3 && ps.NLocal > 0 {
				ps.U[0] = math.NaN()
			}
		},
	})
	defer s.Close()

	spec := sedovSpec(3)
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	if final.Telemetry != telemetry.StatusTripped {
		t.Fatalf("job telemetry rollup %q, want %q", final.Telemetry, telemetry.StatusTripped)
	}
	if v, ok := familyValue(t, s.Registry(), "telemetry_watchdog_trips_total", telemetry.KindNaN); !ok || v < 1 {
		t.Fatalf("telemetry_watchdog_trips_total{nan} = %v (found=%v), want >= 1", v, ok)
	}

	b, ok := s.Telemetry(view.ID)
	if !ok || b == nil {
		t.Fatal("tripped job has no telemetry track")
	}
	track := decodeTrack(t, b)
	if track.Status != telemetry.StatusTripped {
		t.Fatalf("track status %q, want %q", track.Status, telemetry.StatusTripped)
	}
	tripped := false
	for _, kind := range track.Trips {
		if kind == telemetry.KindNaN {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("track trips %v missing %q", track.Trips, telemetry.KindNaN)
	}

	// The trip surfaces on /statusz.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if body := statuszBody(t, ts); !strings.Contains(body, "watchdog") || !strings.Contains(body, telemetry.KindNaN) {
		t.Fatalf("/statusz missing watchdog trip table:\n%s", body)
	}
}

// TestNaNFaultHook: the hook sphexa-serve -inject-nan installs poisons the
// one run the contract smoke expects flagged — a serial sedov job at
// NaNFaultN run for NaNFaultStep steps — and no fleet member beside it:
// not the healthy N=216 members, not a parallel-backend job at the same N.
func TestNaNFaultHook(t *testing.T) {
	sc, err := scenario.Get("sedov")
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := sc.Generate(scenario.Params{N: NaNFaultN})
	if err != nil {
		t.Fatal(err)
	}
	if ps.NLocal != NaNFaultN {
		t.Fatalf("sedov at N=%d realizes %d particles", NaNFaultN, ps.NLocal)
	}

	s := New(Options{Workers: 2, FaultInjection: NaNFault, Store: tempStore(t)})
	defer s.Close()
	parallel := clusterFleetSpec(NaNFaultN, 1)
	parallel.Exec = scenario.Exec{}
	for _, c := range []struct {
		name string
		spec scenario.JobSpec
		want string
	}{
		{"poisoned member", clusterFleetSpec(NaNFaultN, 1), telemetry.StatusTripped},
		{"healthy member", clusterFleetSpec(216, 1), telemetry.StatusOK},
		{"parallel backend", parallel, telemetry.StatusOK},
	} {
		view, err := s.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitState(t, s, view.ID, StateCompleted, 60*time.Second)
		if final.Telemetry != c.want {
			t.Errorf("%s: telemetry %q, want %q", c.name, final.Telemetry, c.want)
		}
	}
}

// readSSEFrame scans an event stream for the next "data: " frame and
// decodes it as a telemetryEvent.
func readSSEFrame(t *testing.T, sc *bufio.Scanner) (telemetryEvent, bool) {
	t.Helper()
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev telemetryEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE frame %q: %v", line, err)
		}
		return ev, true
	}
	return telemetryEvent{}, false
}

// TestTelemetrySSESurvivesKillClosesOnCancel: the live telemetry stream
// keeps delivering frames across a kill-requeue (the job is not terminal)
// and closes after the terminal frame of an explicit cancel.
func TestTelemetrySSESurvivesKillClosesOnCancel(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The job must still be running when Cancel lands. At even 0.1 ms a
	// step it would outlast the 60 s deadline below, so it cannot complete
	// first and end the stream with a completed frame instead.
	spec := sedovSpec(1 << 20)
	spec.Params.N = 1000
	spec.Params.NNeighbors = 30
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/telemetry/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Wait for a frame carrying a real sample, then kill the job.
	deadline := time.Now().Add(60 * time.Second)
	var before telemetryEvent
	for {
		ev, ok := readSSEFrame(t, sc)
		if !ok {
			t.Fatal("stream closed before the first sample arrived")
		}
		if ev.Sample != nil && ev.Sample.Step >= 11 {
			before = ev
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no sample frame before deadline")
		}
	}
	if err := s.Kill(view.ID); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// The stream must survive the kill: the job requeues, resumes, and
	// newer samples keep flowing on the same response body.
	var after telemetryEvent
	for {
		ev, ok := readSSEFrame(t, sc)
		if !ok {
			t.Fatal("stream closed on kill; kills must not end the stream")
		}
		if ev.Sample != nil && ev.Sample.Step > before.Sample.Step && ev.State == StateRunning {
			after = ev
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no post-kill sample frame before deadline")
		}
	}
	if after.Job != view.ID {
		t.Fatalf("frame for job %q, want %q", after.Job, view.ID)
	}

	// Cancel is terminal: the stream emits a cancelled frame and closes.
	if err := s.Cancel(view.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	sawCancelled := false
	for {
		ev, ok := readSSEFrame(t, sc)
		if !ok {
			break
		}
		if ev.State == StateCancelled {
			sawCancelled = true
		}
	}
	if !sawCancelled {
		t.Fatal("stream ended without a cancelled frame")
	}
}

// TestCancelAfterKillWins: a Cancel that lands after a Kill, before the
// killed run returns, ends the job cancelled. The run's context keeps the
// Kill as its cause, so a run that read only the cause requeued the job and
// the Cancel was lost. The step hook holds the run while both land.
func TestCancelAfterKillWins(t *testing.T) {
	id, release := make(chan string, 1), make(chan struct{})
	var s *Server
	interrupted := false // only the one worker goroutine touches it
	s = New(Options{Store: tempStore(t), Workers: 1,
		FaultInjection: func(step int, _ *part.Set) {
			if step != 13 || interrupted {
				return
			}
			interrupted = true
			<-release
			job := <-id
			if err := s.Kill(job); err != nil {
				t.Errorf("kill: %v", err)
			}
			if err := s.Cancel(job); err != nil {
				t.Errorf("cancel: %v", err)
			}
		}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := sedovSpec(18)
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id <- view.ID
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/telemetry/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(release)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last telemetryEvent
	for ev, ok := readSSEFrame(t, sc); ok; ev, ok = readSSEFrame(t, sc) {
		last = ev
	}
	if last.State != StateCancelled {
		t.Errorf("stream closed after a %q frame, want %q", last.State, StateCancelled)
	}
	if final := waitState(t, s, view.ID, StateCancelled, 60*time.Second); final.Restarts != 0 {
		t.Errorf("cancelled job restarted %d times, want 0", final.Restarts)
	}
}

func TestEnginePanicFailsJobNotServer(t *testing.T) {
	// An engine panic mid-run (physics blowup, kernel bug) must fail the
	// one job with the panic value in its error — and leave the worker
	// alive to complete the next job.
	var fired atomic.Bool
	s := New(Options{
		Store:   tempStore(t),
		Workers: 1,
		FaultInjection: func(step int, ps *part.Set) {
			if step == 2 && fired.CompareAndSwap(false, true) {
				panic("injected engine blowup")
			}
		},
	})
	defer s.Close()

	spec := sedovSpec(3)
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, view.ID, StateFailed, 60*time.Second)
	if !strings.Contains(final.Error, "panicked") || !strings.Contains(final.Error, "injected engine blowup") {
		t.Fatalf("job error %q, want the contained panic value", final.Error)
	}

	// The sole worker survived the panic: a fresh job still completes.
	next := sedovSpec(4)
	next.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	view2, err := s.Submit(next)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view2.ID, StateCompleted, 60*time.Second)
}
