package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/trace"
)

// getTrace fetches GET /v1/jobs/{id}/trace and returns the body and status.
func getTrace(t *testing.T, ts *httptest.Server, id, query string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b, resp.StatusCode
}

// TestTraceEndToEndParallel is the tentpole acceptance path: a completed
// parallel sod job serves a valid Chrome trace-event document whose
// per-rank phase durations sum to the persisted report's timing breakdown,
// with measured POP metrics next to the modeled prediction; a cache-hit
// resubmission and a post-restart fetch reproduce the bytes exactly.
func TestTraceEndToEndParallel(t *testing.T) {
	storeDir := t.TempDir()
	spec := sodSpec(6)

	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 2, Store: st1, HistoryInterval: -1})
	ts1 := httptest.NewServer(s1.Handler())

	view, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, view.ID, StateCompleted, 120*time.Second)

	raw1, code := getTrace(t, ts1, view.ID, "")
	if code != http.StatusOK {
		t.Fatalf("trace status %d: %s", code, raw1)
	}
	var doc trace.Document
	if err := json.Unmarshal(raw1, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.Metadata["hash"] != view.Hash || doc.Metadata["scenario"] != "sod" {
		t.Errorf("metadata = %+v", doc.Metadata)
	}

	// Event schema: only X/M events, monotone timestamps per track.
	lastTS := map[[2]int]float64{}
	sums := map[int]map[string]float64{} // engine pid: rank -> phase -> seconds
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
		case "X":
			if ev.TS < 0 || ev.Dur <= 0 {
				t.Fatalf("bad slice timing: %+v", ev)
			}
			key := [2]int{ev.PID, ev.TID}
			if ev.TS < lastTS[key] {
				t.Fatalf("track %v timestamps not monotone", key)
			}
			lastTS[key] = ev.TS
			if ev.PID == 1 { // engine process
				if sums[ev.TID] == nil {
					sums[ev.TID] = map[string]float64{}
				}
				sums[ev.TID][ev.Name] += ev.Dur / 1e6
			}
		default:
			t.Fatalf("unknown ph %q", ev.Ph)
		}
	}

	// The per-rank phase sums must reproduce the persisted report timing.
	report, ok := s1.Metrics(view.ID)
	if !ok || report == nil {
		t.Fatal("no report")
	}
	var rep struct {
		Timing *core.RunTiming `json:"timing"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Timing == nil || len(rep.Timing.PerRank) == 0 {
		t.Fatalf("report has no per-rank timing: %s", report)
	}
	for _, rk := range rep.Timing.PerRank {
		got := sums[rk.Rank]
		for _, c := range []struct {
			phase string
			want  float64
		}{
			{trace.PhaseCompute, rk.Compute},
			{trace.PhaseHalo, rk.Halo},
			{trace.PhaseCollective, rk.Collective},
		} {
			if math.Abs(got[c.phase]-c.want) > 1e-9 {
				t.Errorf("rank %d %s trace sum %.12g, timing %.12g",
					rk.Rank, c.phase, got[c.phase], c.want)
			}
		}
	}

	// Measured POP metrics sit beside the modeled prediction.
	if doc.POP == nil || doc.POP.Measured.Ranks != rep.Timing.Ranks {
		t.Fatalf("pop section = %+v", doc.POP)
	}
	if doc.POP.Modeled == nil || doc.POP.Modeled.LoadBalance != 1 {
		t.Fatalf("modeled pop = %+v", doc.POP.Modeled)
	}
	if lb := doc.POP.Measured.LoadBalance; lb <= 0 || lb > 1 {
		t.Errorf("measured load balance %g out of (0,1]", lb)
	}

	// A cache-hit resubmission serves the identical bytes under a new job id.
	again, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.ID == view.ID {
		t.Fatalf("resubmission not a cache hit: %+v", again)
	}
	raw2, code := getTrace(t, ts1, again.ID, "?format=perfetto")
	if code != http.StatusOK {
		t.Fatalf("cache-hit trace status %d", code)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("trace bytes differ across cache-hit resubmission")
	}

	// The paraver rendering carries the measured timeline and both POP rows.
	praw, code := getTrace(t, ts1, view.ID, "?format=paraver")
	if code != http.StatusOK {
		t.Fatalf("paraver status %d", code)
	}
	for _, want := range []string{"paraver timeline", "measured", "modeled", "phase breakdown"} {
		if !strings.Contains(string(praw), want) {
			t.Errorf("paraver output missing %q:\n%s", want, praw)
		}
	}

	ts1.Close()
	s1.Close()

	// Restart over the same store: the trace re-derives from the persisted
	// artifacts byte-identically.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 2, Store: st2, HistoryInterval: -1})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	after, err := s2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !after.CacheHit || after.State != StateCompleted {
		t.Fatalf("restarted server did not serve the stored result: %+v", after)
	}
	raw3, code := getTrace(t, ts2, after.ID, "")
	if code != http.StatusOK {
		t.Fatalf("post-restart trace status %d", code)
	}
	if !bytes.Equal(raw1, raw3) {
		t.Fatal("trace bytes differ across server restart")
	}
}

// TestTraceBytesStableManyRanks: the trace is a function of the persisted
// bytes at any rank count. With three or more ranks the per-rank useful
// totals have several float sums depending on the order of addition, so a
// POP block that added ranks in map order served different bodies for one
// job; eight ranks, many fetches and a cache-hit resubmission must give one
// body, whose measured POP block is trace.POP over the persisted timing.
func TestTraceBytesStableManyRanks(t *testing.T) {
	s := New(Options{Workers: 2, HistoryInterval: -1, Store: tempStore(t)})
	defer s.Close()
	spec := sodSpec(4)
	spec.Cores = 96 // eight 12-core nodes, one rank each

	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 120*time.Second)
	first, _, err := s.Trace(view.ID, TraceFormatPerfetto)
	if err != nil || first == nil {
		t.Fatalf("trace: %v (%d bytes)", err, len(first))
	}
	for i := 0; i < 300; i++ {
		b, _, err := s.Trace(view.ID, TraceFormatPerfetto)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, first) {
			t.Fatalf("fetch %d served a different body for the same job", i)
		}
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatalf("resubmission not a cache hit: %+v", again)
	}
	if b, _, err := s.Trace(again.ID, TraceFormatPerfetto); err != nil || !bytes.Equal(b, first) {
		t.Fatalf("cache-hit resubmission served a different body (err %v)", err)
	}

	var doc trace.Document
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	report, _ := s.Metrics(view.ID)
	var rep struct {
		Timing *core.RunTiming `json:"timing"`
	}
	if err := json.Unmarshal(report, &rep); err != nil || rep.Timing == nil {
		t.Fatalf("report timing: %v", err)
	}
	if rep.Timing.Ranks != 8 {
		t.Fatalf("%d ranks, want 8", rep.Timing.Ranks)
	}
	// One chunk, so the record's wall-clock is the latest rank clock itself.
	want := trace.POP(rep.Timing.PerRank, rep.Timing.Seconds).Report()
	if doc.POP == nil || doc.POP.Measured != want {
		t.Errorf("measured POP block %+v, want POP over the persisted timing %+v", doc.POP, want)
	}
}

// TestTraceSerialBackend: a serial-backend job's trace lays the engine's
// real per-step phase letters on one rank-0 track, with no modeled POP
// column (the serial engine has no machine model to predict under).
func TestTraceSerialBackend(t *testing.T) {
	s := New(Options{Workers: 1, HistoryInterval: -1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := scenario.JobSpec{
		Spec: scenario.Spec{
			Scenario: "cube",
			Params:   scenario.Params{N: 216, NNeighbors: 20},
			Steps:    3,
		},
		Exec: scenario.Exec{Backend: scenario.BackendSerial},
	}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)

	raw, code := getTrace(t, ts, view.ID, "")
	if code != http.StatusOK {
		t.Fatalf("trace status %d: %s", code, raw)
	}
	var doc trace.Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var engine, phases int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.PID != 1 {
			continue
		}
		engine++
		if ev.TID != 0 {
			t.Fatalf("serial slice on rank %d: %+v", ev.TID, ev)
		}
		// Serial phases are the paper's Figure 4 letters, not class names.
		if len(ev.Name) == 1 && ev.Name >= "A" && ev.Name <= "J" {
			phases++
		}
	}
	if engine == 0 || phases != engine {
		t.Fatalf("engine slices %d, letter-named %d", engine, phases)
	}
	if doc.POP == nil || doc.POP.Modeled != nil {
		t.Fatalf("serial pop section = %+v", doc.POP)
	}
	if doc.Metadata["backend"] != "serial" {
		t.Errorf("metadata backend = %q", doc.Metadata["backend"])
	}
}

// TestTraceErrorStates pins the error envelope of the trace route.
func TestTraceErrorStates(t *testing.T) {
	s := New(Options{Workers: 1, HistoryInterval: -1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wantCode := func(body []byte, status, wantStatus int, code string) {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("status %d, want %d: %s", status, wantStatus, body)
		}
		var env map[string]APIError
		if err := json.Unmarshal(body, &env); err != nil || env["error"].Code != code {
			t.Fatalf("error envelope %s, want code %s", body, code)
		}
	}

	b, status := getTrace(t, ts, "job-999999", "")
	wantCode(b, status, http.StatusNotFound, CodeUnknownJob)

	view, err := s.Submit(sedovSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	b, status = getTrace(t, ts, view.ID, "")
	wantCode(b, status, http.StatusConflict, CodeConflict)
	b, status = getTrace(t, ts, view.ID, "?format=vampir")
	wantCode(b, status, http.StatusBadRequest, CodeInvalidArgument)
	if err := s.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsHistoryEndpoint drives the sampler by hand (background ticker
// disabled) and reads the history back through the HTTP surface.
func TestMetricsHistoryEndpoint(t *testing.T) {
	s := New(Options{Workers: 1, HistoryInterval: -1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		s.SampleHistory()
	}

	resp, err := http.Get(ts.URL + "/v1/metrics/history?series=go_goroutines,workers_total&window=1h")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var snap struct {
		IntervalSeconds float64 `json:"intervalSeconds"`
		MaxSamples      int     `json:"maxSamples"`
		Ticks           int     `json:"ticks"`
		Series          []struct {
			Name    string `json:"name"`
			Type    string `json:"type"`
			Samples []struct {
				Tick  int     `json:"tick"`
				Value float64 `json:"value"`
			} `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Ticks != 3 || snap.MaxSamples < 256 {
		t.Fatalf("snapshot ticks=%d maxSamples=%d", snap.Ticks, snap.MaxSamples)
	}
	got := map[string]int{}
	for _, sr := range snap.Series {
		got[sr.Name] = len(sr.Samples)
	}
	if got["go_goroutines"] != 3 || got["workers_total"] != 3 {
		t.Fatalf("series sample counts %v", got)
	}
	for _, sr := range snap.Series {
		if sr.Name == "go_goroutines" && sr.Samples[0].Value <= 0 {
			t.Errorf("go_goroutines sampled %g, want > 0", sr.Samples[0].Value)
		}
	}

	// Bad window is a 400 with the standard envelope.
	resp, err = http.Get(ts.URL + "/v1/metrics/history?window=soon")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), CodeInvalidArgument) {
		t.Fatalf("bad window: %d %s", resp.StatusCode, b)
	}
}

// TestStatuszTrendColumns: the trend table renders with live values and
// dashes for history the store does not reach back to.
func TestStatuszTrendColumns(t *testing.T) {
	s := New(Options{Workers: 1, HistoryInterval: -1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.SampleHistory()
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(b)
	for _, want := range []string{"10m ago", "go_goroutines", "go_heap_bytes"} {
		if !strings.Contains(body, want) {
			t.Fatalf("statusz missing %q:\n%s", want, body)
		}
	}
	// One fresh sample cannot satisfy a 1m look-back.
	if !strings.Contains(body, "-") {
		t.Error("statusz trend columns should dash out unreachable history")
	}
}
