package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ft"
	"repro/internal/obs"
	"repro/internal/part"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/pkg/client"
)

// tempStore opens an empty result store in a test temp directory: every
// server has one.
func tempStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sedovSpec is the small, fast canonical job used across the tests.
func sedovSpec(steps int) scenario.JobSpec {
	return scenario.JobSpec{Spec: scenario.Spec{
		Scenario: "sedov",
		Params: scenario.Params{
			N: 216, NNeighbors: 20,
			Extra: map[string]float64{"energy": 1},
		},
		Steps: steps,
		Cores: 4,
	}}
}

// testClient wires a pkg/client onto an httptest server — the suites talk
// to the API exactly as external consumers do.
func testClient(ts *httptest.Server) *client.Client {
	return client.New(ts.URL)
}

func waitState(t *testing.T, s *Server, id string, want JobState, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		view, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if view.State == want {
			return view
		}
		switch view.State {
		case StateFailed, StateCancelled:
			if want != view.State {
				t.Fatalf("job %s reached terminal state %s (err=%q) while waiting for %s",
					id, view.State, view.Error, want)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (progress %+v) waiting for %s",
				id, view.State, view.Progress, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func decodeSnapshot(t *testing.T, raw []byte) *part.Set {
	t.Helper()
	ps := part.New(0)
	if _, err := ps.ReadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatalf("snapshot does not decode as a part checkpoint: %v", err)
	}
	return ps
}

// TestNewRequiresStore: a result has one home, the store, so a server
// without one is a programming error, named as such.
func TestNewRequiresStore(t *testing.T) {
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "Options.Store") {
			t.Errorf("New without a store: panic %v, want one naming Options.Store", v)
		}
	}()
	New(Options{Workers: 1}).Close()
}

// TestSubmitPollSnapshotAndCacheHit is the end-to-end acceptance path: the
// same Sedov job submitted twice through the client — the first executes
// the distributed engine, the second is served from the result cache — and
// both snapshots decode via part with matching CRC and particle count.
func TestSubmitPollSnapshotAndCacheHit(t *testing.T) {
	s := New(Options{Workers: 2, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	first, err := c.Submit(ctx, sedovSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first submission reported a cache hit")
	}
	if first.Hash == "" {
		t.Fatal("submission response missing spec hash")
	}
	if !first.Spec.Exec.IsZero() {
		t.Fatalf("default submission grew an exec section: %+v", first.Spec.Exec)
	}

	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	polled, err := c.WaitJob(waitCtx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if polled.State != client.StateCompleted {
		t.Fatalf("job ended %s: %s", polled.State, polled.Error)
	}
	if polled.Progress.Step != 3 || polled.Progress.SimTime <= 0 {
		t.Fatalf("completed progress %+v", polled.Progress)
	}

	snap1, err := c.Snapshot(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	ps1 := decodeSnapshot(t, snap1)
	if ps1.NLocal != 216 {
		t.Fatalf("snapshot particle count %d, want 216", ps1.NLocal)
	}
	if err := ps1.Validate(); err != nil {
		t.Fatalf("snapshot state invalid: %v", err)
	}

	// Second submission of the identical spec: served from the cache.
	second, err := c.Submit(ctx, sedovSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.State != client.StateCompleted {
		t.Fatalf("second submission not a completed cache hit: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the first job id")
	}
	if second.Hash != first.Hash {
		t.Fatalf("identical specs hashed differently: %s vs %s", first.Hash, second.Hash)
	}

	snap2, err := c.Snapshot(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	ps2 := decodeSnapshot(t, snap2)
	if ps2.NLocal != ps1.NLocal {
		t.Fatalf("particle counts differ: %d vs %d", ps2.NLocal, ps1.NLocal)
	}
	if ps1.Checksum() != ps2.Checksum() {
		t.Fatal("cached snapshot CRC differs from the executed run")
	}
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("cached snapshot bytes differ from the executed run")
	}

	s.mu.Lock()
	cached := s.jobs.cachedLenLocked()
	s.mu.Unlock()
	if cached != 1 {
		t.Fatalf("cache holds %d entries, want 1", cached)
	}
}

// TestBackendChangesHashAndResult: the acceptance criterion of the typed
// spec — the same scenario spec under a different execution section is a
// different job: different hash, separately cached result, both backends
// completing on their own engines.
func TestBackendChangesHashAndResult(t *testing.T) {
	s := New(Options{Workers: 2, Store: tempStore(t)})
	defer s.Close()

	parallel := sedovSpec(2)
	serial := sedovSpec(2)
	serial.Exec = scenario.Exec{Backend: scenario.BackendSerial}

	pj, err := s.Submit(parallel)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := s.Submit(serial)
	if err != nil {
		t.Fatal(err)
	}
	if pj.Hash == sj.Hash {
		t.Fatalf("serial and parallel specs share hash %s", pj.Hash)
	}
	if pj.ID == sj.ID {
		t.Fatal("distinct backends coalesced onto one job")
	}
	waitState(t, s, pj.ID, StateCompleted, 60*time.Second)
	waitState(t, s, sj.ID, StateCompleted, 60*time.Second)

	// Distinct results cached under distinct hashes.
	s.mu.Lock()
	cached := s.jobs.cachedLenLocked()
	s.mu.Unlock()
	if cached != 2 {
		t.Fatalf("cache holds %d entries, want 2 (one per backend)", cached)
	}

	// Resubmitting each spec hits its own cache entry.
	again, err := s.Submit(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Hash != sj.Hash {
		t.Fatalf("serial resubmission: cacheHit=%v hash=%s, want hit of %s",
			again.CacheHit, again.Hash, sj.Hash)
	}

	// An explicitly spelled-out default backend still coalesces with the
	// implicit one (canonicalization maps it to the zero section).
	spelled := sedovSpec(2)
	spelled.Exec = scenario.Exec{Backend: scenario.BackendParallel}
	sp, err := s.Submit(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Hash != pj.Hash || !sp.CacheHit {
		t.Fatalf("explicit parallel backend did not coalesce with the default: %+v", sp)
	}
}

// TestExecMachineAndCostDispatch: a job naming a machine model and a
// parent-code calibration runs to completion and hashes apart from the
// default execution.
func TestExecMachineAndCostDispatch(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	spec := sedovSpec(2)
	spec.Exec = scenario.Exec{Machine: "marenostrum", Cost: "sphynx"}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	def, err := sedovSpec(2).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if view.Hash == def {
		t.Fatal("machine/cost selection did not change the spec hash")
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)

	// Alias spelling of the same machine coalesces.
	alias := sedovSpec(2)
	alias.Exec = scenario.Exec{Machine: "mn4", Cost: "SPHYNX"}
	av, err := s.Submit(alias)
	if err != nil {
		t.Fatal(err)
	}
	if av.Hash != view.Hash || !av.CacheHit {
		t.Fatalf("alias spelling did not coalesce: %+v", av)
	}

	// Unknown names are rejected at submission.
	bad := sedovSpec(2)
	bad.Exec = scenario.Exec{Machine: "warp-core"}
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("unknown machine accepted")
	}
	bad.Exec = scenario.Exec{Backend: "quantum"}
	if _, err := s.Submit(bad); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestEmptyExecIsPizDaint pins what an empty exec section means: the same
// job as exec.machine "daint" under a different hash, so a stored result
// depends on its spec alone. Both persist equal timing blocks and render
// equal modeled POP lines; a MareNostrum job shows that the comparison can
// tell two machines apart.
func TestEmptyExecIsPizDaint(t *testing.T) {
	s := New(Options{Workers: 1, HistoryInterval: -1, Store: tempStore(t)})
	defer s.Close()

	run := func(machine string) (hash string, timing json.RawMessage, modeled string) {
		t.Helper()
		spec := sedovSpec(2)
		spec.Cores = 24 // two ranks on Piz Daint, one on MareNostrum 4
		spec.Exec.Machine = machine
		view, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, view.ID, StateCompleted, 60*time.Second)
		report, _ := s.Metrics(view.ID)
		var rep struct {
			Timing json.RawMessage `json:"timing"`
		}
		if err := json.Unmarshal(report, &rep); err != nil || rep.Timing == nil {
			t.Fatalf("%q: report timing: %v", machine, err)
		}
		paraver, _, err := s.Trace(view.ID, TraceFormatParaver)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(paraver), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "modeled ") {
				modeled = line
			}
		}
		if modeled == "" {
			t.Fatalf("%q: no modeled POP line in\n%s", machine, paraver)
		}
		return view.Hash, rep.Timing, modeled
	}
	emptyHash, emptyTiming, emptyPOP := run("")
	daintHash, daintTiming, daintPOP := run("daint")
	if emptyHash == daintHash {
		t.Fatal("an empty exec section hashed as exec.machine \"daint\"")
	}
	if !bytes.Equal(emptyTiming, daintTiming) {
		t.Errorf("timing differs:\n empty %s\n daint %s", emptyTiming, daintTiming)
	}
	if emptyPOP != daintPOP {
		t.Errorf("modeled POP differs:\n empty %s\n daint %s", emptyPOP, daintPOP)
	}
	_, mnTiming, mnPOP := run("marenostrum")
	if bytes.Equal(mnTiming, daintTiming) || mnPOP == daintPOP {
		t.Errorf("MareNostrum 4 rendered Piz Daint's timing or modeled POP:\n %s", mnPOP)
	}
}

// TestEventsStream: the SSE endpoint delivers progress frames and ends with
// the terminal state.
func TestEventsStream(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	view, err := s.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var frames []JobView
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var v JobView
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, v)
	}
	if len(frames) == 0 {
		t.Fatal("no progress frames received")
	}
	last := frames[len(frames)-1]
	if last.State != StateCompleted {
		t.Fatalf("stream ended in %s, want completed", last.State)
	}
	if last.Progress.Step != 2 {
		t.Fatalf("final frame progress %+v", last.Progress)
	}
}

// TestKillResumesFromCheckpoint: a killed job re-enters the queue and
// finishes from the state its run stopped at instead of terminating — the
// crash-recovery path driven through the service. The resumed run records
// a restore phase in the job's persisted lifecycle.
func TestKillResumesFromCheckpoint(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	spec := sedovSpec(40)
	spec.Params.N = 1000
	spec.Params.NNeighbors = 30
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the job has progressed past its first chunk.
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, _ := s.Get(view.ID)
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
	if err := s.Kill(view.ID); err != nil {
		t.Fatalf("kill: %v", err)
	}

	final := waitState(t, s, view.ID, StateCompleted, 120*time.Second)
	if final.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", final.Restarts)
	}
	if final.Progress.Step != 40 {
		t.Fatalf("final progress %+v", final.Progress)
	}
	report, ok := s.Metrics(view.ID)
	if !ok {
		t.Fatal("completed job has no report")
	}
	var lifecycle struct {
		Spans obs.SpanSet `json:"spans"`
	}
	if err := json.Unmarshal(report, &lifecycle); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ph := range lifecycle.Spans.Phases {
		names = append(names, ph.Name)
	}
	if !slices.Contains(names, obs.PhaseRestore) {
		t.Errorf("persisted lifecycle %v has no %s phase", names, obs.PhaseRestore)
	}

	if _, ok := s.Snapshot(view.ID); !ok {
		t.Fatal("completed job has no snapshot")
	}
}

// TestSerialBackendKillResumes: the crash-recovery path under the serial
// engine — the resume is backend-agnostic, and the resumed run continues
// where the killed one stopped, so the step hook sees every step once.
func TestSerialBackendKillResumes(t *testing.T) {
	var mu sync.Mutex
	seen := make([]int, 31)
	s := New(Options{Workers: 1, Store: tempStore(t),
		FaultInjection: func(step int, _ *part.Set) {
			mu.Lock()
			seen[step]++
			mu.Unlock()
		}})
	defer s.Close()

	spec := sedovSpec(30)
	spec.Params.N = 1000
	spec.Params.NNeighbors = 30
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		v, _ := s.Get(view.ID)
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
	if err := s.Kill(view.ID); err != nil {
		t.Fatalf("kill: %v", err)
	}
	final := waitState(t, s, view.ID, StateCompleted, 120*time.Second)
	if final.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", final.Restarts)
	}
	if final.Progress.Step != 30 {
		t.Fatalf("final progress %+v", final.Progress)
	}
	mu.Lock()
	for step := 1; step <= 30; step++ {
		if seen[step] != 1 {
			t.Errorf("step %d ran %d times, want once", step, seen[step])
		}
	}
	mu.Unlock()
	if _, ok := s.Snapshot(view.ID); !ok {
		t.Fatal("completed serial job has no snapshot")
	}
}

// TestRerunIgnoresOldCheckpoints: a job's state ends with it. A later run
// of the same hash on a new server, whose store no longer holds the result
// (evicted, expired or lost), computes every step again: its telemetry
// track and report equal the first run's. Neither server writes a file
// into the data directory it is given and ignores.
func TestRerunIgnoresOldCheckpoints(t *testing.T) {
	dataDir := t.TempDir()
	run := func() (track, report []byte) {
		t.Helper()
		s := New(Options{Workers: 1, DataDir: dataDir, Store: tempStore(t),
			Clock: newTestClock().now, HistoryInterval: -1})
		defer s.Close()
		view, err := s.Submit(sedovSpec(25))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, view.ID, StateCompleted, 120*time.Second)
		if files := filesUnder(t, dataDir); len(files) > 0 {
			t.Errorf("the server wrote %q", files)
		}
		track, ok := s.Telemetry(view.ID)
		if !ok {
			t.Fatal("no telemetry track")
		}
		report, ok = s.Metrics(view.ID)
		if !ok {
			t.Fatal("no report")
		}
		return track, report
	}
	track1, report1 := run()
	track2, report2 := run()
	if n := len(decodeTrack(t, track2).Samples); n != 25 {
		t.Errorf("second run's track has %d samples, want 25", n)
	}
	if !bytes.Equal(track1, track2) {
		t.Errorf("second run's track is %d bytes, first run's %d: not equal", len(track2), len(track1))
	}
	if !bytes.Equal(report1, report2) {
		t.Errorf("second run's report is %d bytes, first run's %d: not equal", len(report2), len(report1))
	}
}

// TestKillIgnoresLeftoverCheckpoints: checkpoints an older server left
// under its data directory are not the job's own. A later server's run of
// the hash that is killed resumes from the state its kill held, not from a
// newer leftover file, so its track still covers every step once; and the
// server adds no file beside the leftover.
func TestKillIgnoresLeftoverCheckpoints(t *testing.T) {
	spec := sedovSpec(22)
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	ref := New(Options{Workers: 1, Store: tempStore(t)})
	view, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ref, view.ID, StateCompleted, 60*time.Second)
	snap, ok := ref.Snapshot(view.ID)
	ref.Close()
	if !ok {
		t.Fatal("no snapshot")
	}
	dataDir := t.TempDir()
	leftover := &ft.Checkpointer{Dir: filepath.Join(dataDir, view.Hash)}
	if err := leftover.Write(20, 0.1, decodeSnapshot(t, snap)); err != nil {
		t.Fatal(err)
	}

	id := make(chan string, 1)
	killed := false // only the one worker goroutine touches it
	var s *Server
	s = New(Options{Workers: 1, DataDir: dataDir, Store: tempStore(t),
		FaultInjection: func(step int, _ *part.Set) {
			if step == 13 && !killed {
				killed = true
				if err := s.Kill(<-id); err != nil {
					t.Errorf("kill: %v", err)
				}
			}
		}})
	defer s.Close()
	if view, err = s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	id <- view.ID
	final := waitState(t, s, view.ID, StateCompleted, 60*time.Second)
	if final.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", final.Restarts)
	}
	track, _ := s.Telemetry(view.ID)
	if n := len(decodeTrack(t, track).Samples); n != 22 {
		t.Errorf("track has %d samples, want 22", n)
	}
	if files := filesUnder(t, dataDir); len(files) != 1 {
		t.Errorf("data directory holds %q, want the leftover checkpoint alone", files)
	}
}

// TestCancelAfterEarlyKillDropsCheckpoints: a Cancel after a Kill ends the
// job cancelled, holding no state for a resume, and the server writes no
// file.
func TestCancelAfterEarlyKillDropsCheckpoints(t *testing.T) {
	dataDir := t.TempDir()
	spec := sedovSpec(18)
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	id := make(chan string, 1)
	var s *Server
	s = New(Options{Store: tempStore(t), Workers: 1, DataDir: dataDir,
		FaultInjection: func(step int, _ *part.Set) {
			if step == 5 {
				job := <-id
				if err := s.Kill(job); err != nil {
					t.Errorf("kill: %v", err)
				}
				if err := s.Cancel(job); err != nil {
					t.Errorf("cancel: %v", err)
				}
			}
		}})
	defer s.Close()
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id <- view.ID
	waitState(t, s, view.ID, StateCancelled, 60*time.Second)
	if holds(s, view.ID) {
		t.Error("the cancelled job holds a killed run's state")
	}
	if files := filesUnder(t, dataDir); len(files) > 0 {
		t.Errorf("the server wrote %q", files)
	}
}

// TestCancelWhileRequeuedDropsCheckpoints: a killed job waiting in the
// queue to resume holds the state its kill stopped at; cancelling it there
// drops that state. One worker: job A is killed at its step 13 after job B
// was queued, so A's requeue waits behind B, and B's first step cancels A.
// The server writes no file.
func TestCancelWhileRequeuedDropsCheckpoints(t *testing.T) {
	dataDir := t.TempDir()
	specA, specB := sedovSpec(18), sedovSpec(2)
	specA.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	specB.Exec = specA.Exec
	specB.Params.N = 125
	// The hook runs on the one worker goroutine; a and killed live there.
	aID, bID := make(chan JobView, 1), make(chan string, 1)
	var a JobView
	killed := false
	var s *Server
	s = New(Options{Store: tempStore(t), Workers: 1, DataDir: dataDir,
		FaultInjection: func(step int, ps *part.Set) {
			switch {
			case ps.NLocal == specA.Params.N && step == 13 && !killed:
				killed, a = true, <-aID
				b, err := s.Submit(specB)
				if err != nil {
					t.Errorf("submit B: %v", err)
					return
				}
				bID <- b.ID
				if err := s.Kill(a.ID); err != nil {
					t.Errorf("kill A: %v", err)
				}
			case ps.NLocal == specB.Params.N && step == 1:
				if !holds(s, a.ID) {
					t.Error("the requeued job holds no state to resume from")
				}
				if err := s.Cancel(a.ID); err != nil {
					t.Errorf("cancel A: %v", err)
				}
				if holds(s, a.ID) {
					t.Error("the job cancelled in the queue still holds its state")
				}
			}
		}})
	defer s.Close()
	view, err := s.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	aID <- *view
	waitState(t, s, <-bID, StateCompleted, 60*time.Second)
	if final := waitState(t, s, view.ID, StateCancelled, 60*time.Second); final.Restarts != 1 {
		t.Errorf("cancelled job restarted %d times, want 1", final.Restarts)
	}
	if files := filesUnder(t, dataDir); len(files) > 0 {
		t.Errorf("the server wrote %q", files)
	}
}

// TestKilledJobWritesNoFile: a served job killed mid-run resumes from the
// state held in memory. Neither the data directory it is given and
// ignores nor the temporary directory gets an entry, while the resumed run
// runs or afterwards, and the store directory holds only its index, its
// journal and the one pack of the result.
func TestKilledJobWritesNoFile(t *testing.T) {
	dataDir, tmpDir, storeDir := t.TempDir(), t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmpDir)
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sedovSpec(25)
	spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	id, resumed := make(chan string, 1), make(chan []string, 1)
	killed := false // only the one worker goroutine touches it
	var s *Server
	s = New(Options{Workers: 1, DataDir: dataDir, Store: st,
		FaultInjection: func(step int, _ *part.Set) {
			switch {
			case step == 13 && !killed:
				killed = true
				if err := s.Kill(<-id); err != nil {
					t.Errorf("kill: %v", err)
				}
			case step == 14: // the resumed run's first step
				var names []string
				for _, dir := range []string{dataDir, tmpDir} {
					entries, _ := os.ReadDir(dir)
					for _, e := range entries {
						names = append(names, filepath.Join(dir, e.Name()))
					}
				}
				resumed <- names
			}
		}})
	defer s.Close()
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id <- view.ID
	if final := waitState(t, s, view.ID, StateCompleted, 60*time.Second); final.Restarts != 1 {
		t.Fatalf("restarts=%d, want 1", final.Restarts)
	}
	if names := <-resumed; len(names) > 0 {
		t.Errorf("while the resumed run ran, the server had written %q", names)
	}
	for _, dir := range []string{dataDir, tmpDir} {
		if files := filesUnder(t, dir); len(files) > 0 {
			t.Errorf("the server wrote %q", files)
		}
	}
	want := []string{"index.json", "index.log", filepath.Join("packs", "1.pack")}
	if files := filesUnder(t, storeDir); !slices.Equal(files, want) {
		t.Errorf("store directory holds %q, want %q", files, want)
	}
}

// holds reports whether job id holds a killed run's state for its resume.
func holds(s *Server, id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs.getLocked(id)
	return ok && job.run != nil && job.run.held.frame != nil
}

// filesUnder lists the regular files under dir, relative to it, in lexical
// order.
func filesUnder(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path) // path is under dir
			names = append(names, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCancelTerminates: explicit cancellation is terminal and frees the
// hash for resubmission.
func TestCancelTerminates(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	spec := sedovSpec(200)
	spec.Params.N = 1000
	spec.Params.NNeighbors = 30
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateRunning, 60*time.Second)
	if err := s.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, s, view.ID, StateCancelled, 60*time.Second)
	if final.Progress.Step >= 200 {
		t.Fatalf("cancelled job ran to completion: %+v", final.Progress)
	}
	if err := s.Cancel(view.ID); err == nil {
		t.Fatal("second cancel of a terminal job must error")
	}

	// The hash is free again: a resubmission starts a fresh job.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == view.ID || again.CacheHit {
		t.Fatalf("resubmission after cancel did not start fresh: %+v", again)
	}
	_ = s.Cancel(again.ID)
}

// TestSubmitCoalescesActiveDuplicates: submitting a spec identical to a
// queued/running job returns that job instead of enqueueing a duplicate.
func TestSubmitCoalescesActiveDuplicates(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	spec := sedovSpec(100)
	spec.Params.N = 1000
	spec.Params.NNeighbors = 30
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate active spec created a second job: %s vs %s", dup.ID, first.ID)
	}
	_ = s.Cancel(first.ID)
}

// TestQueueFullIs503: the job queue holds queueDepth (64) waiting jobs.
// With the one worker held inside a serial job's first step, 64 distinct
// submissions queue behind it and the 65th is refused with 503 and code
// queue_full, while /v1/healthz still answers 200.
func TestQueueFullIs503(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s := New(Options{Workers: 1, Store: tempStore(t), HistoryInterval: -1,
		FaultInjection: func(int, *part.Set) { once.Do(func() { close(held); <-release }) }})
	defer s.Close()
	defer close(release) // before Close, which waits for the held job
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(i int) (status int, code string) {
		t.Helper()
		spec := coldSpec(i)
		spec.Exec = scenario.Exec{Backend: scenario.BackendSerial}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct{ Error APIError }
		_ = json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env.Error.Code
	}

	if status, code := post(0); status != http.StatusAccepted {
		t.Fatalf("first submission: %d %q", status, code)
	}
	select {
	case <-held:
	case <-time.After(60 * time.Second):
		t.Fatal("the worker never started the first job")
	}
	for i := 1; i <= queueDepth; i++ {
		if status, code := post(i); status != http.StatusAccepted {
			t.Fatalf("queued submission %d: %d %q", i, status, code)
		}
	}
	if status, code := post(queueDepth + 1); status != http.StatusServiceUnavailable || code != CodeQueueFull {
		t.Errorf("submission %d past a full queue: %d %q, want 503 %q", queueDepth+1, status, code, CodeQueueFull)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/healthz with a full queue: %d, want 200", resp.StatusCode)
	}
}

// TestErrorEnvelope covers the structured /v1 failure envelope: stable
// codes, JSON content type, and the client's APIError decoding.
func TestErrorEnvelope(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	wantCode := func(err error, code string, status int) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("error %v (%T) is not an APIError", err, err)
		}
		if apiErr.Code != code || apiErr.Status != status {
			t.Fatalf("error %+v, want code=%s status=%d", apiErr, code, status)
		}
	}

	// Unknown scenario: 404 with the registered names in the message.
	_, err := c.Submit(ctx, scenario.JobSpec{Spec: scenario.Spec{Scenario: "warp-drive", Steps: 1}})
	wantCode(err, CodeUnknownScenario, http.StatusNotFound)
	var apiErr *client.APIError
	errors.As(err, &apiErr)
	if !strings.Contains(apiErr.Message, "sedov") {
		t.Fatalf("error %q does not list registered scenarios", apiErr.Message)
	}

	// Unknown job id.
	_, err = c.Job(ctx, "job-999999")
	wantCode(err, CodeUnknownJob, http.StatusNotFound)

	// Snapshot of a non-completed job: 409 conflict.
	spec := sedovSpec(100)
	spec.Params.N = 1000
	spec.Params.NNeighbors = 30
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Snapshot(ctx, view.ID)
	wantCode(err, CodeConflict, http.StatusConflict)
	_ = s.Cancel(view.ID)

	// Invalid exec section: 400 invalid_argument.
	bad := sedovSpec(1)
	bad.Exec = scenario.Exec{Backend: "quantum"}
	_, err = c.Submit(ctx, bad)
	wantCode(err, CodeInvalidArgument, http.StatusBadRequest)

	// Unknown state filter: 400 invalid_argument.
	_, err = c.Jobs(ctx, client.ListOptions{State: "warp"})
	wantCode(err, CodeInvalidArgument, http.StatusBadRequest)

	// The envelope itself is well-formed JSON with the error member.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content type %q, want application/json", ct)
	}
	var env struct {
		Error APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeUnknownJob || env.Error.Message == "" {
		t.Fatalf("envelope %+v", env)
	}

	// Scenario listing includes the registry and flags reference-backed
	// scenarios.
	infos, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) < 6 {
		t.Fatalf("scenario listing has %d entries: %+v", len(infos), infos)
	}
	refs := map[string]bool{}
	for _, info := range infos {
		refs[info.Name] = info.HasReference
	}
	if !refs["sod"] || refs["cube"] {
		t.Fatalf("hasReference flags wrong: %+v", refs)
	}

	// A body is one JSON value of at most maxBodyBytes: trailing data is
	// 400, an oversized body 413, both invalid_argument; trailing
	// whitespace is fine (the unknown scenario shows the spec decoded).
	one, err := json.Marshal(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	unknown, err := json.Marshal(scenario.JobSpec{Spec: scenario.Spec{Scenario: "warp-drive", Steps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"trailing garbage", append(one, " garbage"...), http.StatusBadRequest, CodeInvalidArgument},
		{"second value", append(one, `{"scenario":"nope"}`...), http.StatusBadRequest, CodeInvalidArgument},
		{"8 MiB of padding", append(one, bytes.Repeat([]byte(" "), 8<<20)...), http.StatusRequestEntityTooLarge, CodeInvalidArgument},
		{"trailing whitespace", append(unknown, " \n\t"...), http.StatusNotFound, CodeUnknownScenario},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(row.body))
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		var env struct {
			Error APIError `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != row.status || env.Error.Code != row.code {
			t.Fatalf("%s: %d %+v (%v), want %d %s", row.name, resp.StatusCode, env.Error, err, row.status, row.code)
		}
	}

	// Health.
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyRoutesRemoved: the pre-/v1 unversioned aliases and the
// job-scoped profile route are gone; every former alias path now 404s with
// no Deprecation signal, while the /v1 routes keep serving.
func TestLegacyRoutesRemoved(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := []byte(`{"scenario":"sedov","params":{"n":216,"nNeighbors":20,"extra":{"energy":1}},"steps":1,"cores":2}`)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy submit status %d, want 404", resp.StatusCode)
	}
	if dep := resp.Header.Get("Deprecation"); dep != "" {
		t.Fatalf("removed route still carries Deprecation header %q", dep)
	}

	for _, path := range []string{"/jobs", "/jobs/some-id", "/scenarios", "/healthz", "/storez"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("legacy %s status %d, want 404", path, r.StatusCode)
		}
		if r.Header.Get("Deprecation") != "" || r.Header.Get("Link") != "" {
			t.Fatalf("legacy %s still carries deprecation headers", path)
		}
	}

	// So is the job-scoped CPU profile (-pprof-addr serves the profiler):
	// a real job's POST .../profile finds no route.
	view, err := s.Submit(sedovSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs/"+view.ID+"/profile?seconds=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("job profile status %d, want 404", resp.StatusCode)
	}

	// The versioned routes are unaffected.
	r, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/v1/healthz status %d", r.StatusCode)
	}
}

// TestListPagination: cursor pagination walks the whole listing in stable
// order without duplicates.
func TestListPagination(t *testing.T) {
	s := New(Options{Workers: 2, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	var want []string
	for steps := 1; steps <= 5; steps++ {
		view, err := s.Submit(sedovSpec(steps))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, view.ID)
	}
	for _, id := range want {
		waitState(t, s, id, StateCompleted, 60*time.Second)
	}

	var got []string
	cursor := ""
	pages := 0
	for {
		page, err := c.Jobs(ctx, client.ListOptions{Limit: 2, Cursor: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Jobs {
			got = append(got, j.ID)
		}
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > 10 {
			t.Fatal("pagination never terminated")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("paged listing returned %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paged order %v, want %v", got, want)
		}
	}
	if pages < 3 {
		t.Fatalf("limit=2 over 5 jobs paged %d times, want >= 3", pages)
	}

	// State filter composes with pagination.
	page, err := c.Jobs(ctx, client.ListOptions{State: client.StateCompleted, Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 5 || page.NextCursor != "" {
		t.Fatalf("completed filter page %+v", page)
	}
}

// TestCursorAfterOrdersPastPaddingWidth: cursor ordering must follow
// allocation order even after the sequence number outgrows the six-digit
// zero padding (plain lexicographic comparison would sort job-1000000
// before job-999999 and silently skip every newer job).
func TestCursorAfterOrdersPastPaddingWidth(t *testing.T) {
	cases := []struct {
		id, cursor string
		want       bool
	}{
		{"job-000002", "job-000001", true},
		{"job-000001", "job-000001", false},
		{"job-000001", "job-000002", false},
		{"job-1000000", "job-999999", true},
		{"job-999999", "job-1000000", false},
		{"job-1000001", "job-1000000", true},
	}
	for _, c := range cases {
		if got := cursorAfter(c.id, c.cursor); got != c.want {
			t.Errorf("cursorAfter(%q, %q) = %v, want %v", c.id, c.cursor, got, c.want)
		}
	}
}
