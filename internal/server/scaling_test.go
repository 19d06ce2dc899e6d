package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
	"repro/pkg/client"
)

// sedovScaling is the canonical test scaling experiment: a fast sedov
// strong-scaling ladder under the server's default machine model.
func sedovScaling(steps int, cores ...int) experiments.ScalingSweep {
	return experiments.ScalingSweep{Base: sedovSpec(steps), Cores: cores}
}

func waitScaling(t *testing.T, s *Server, id string, timeout time.Duration) ScalingView {
	t.Helper()
	done, ok := s.Scaling.Done(id)
	if !ok {
		t.Fatalf("scaling experiment %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(timeout):
		v, _ := s.Scaling.Get(id)
		t.Fatalf("scaling experiment %s stuck in %s: %+v", id, v.State, v)
	}
	v, ok := s.Scaling.Get(id)
	if !ok {
		t.Fatalf("scaling experiment %s disappeared", id)
	}
	return v
}

// TestScalingLifecycle is the acceptance path of the scaling resource: a
// 3-point ladder runs through the job pipeline (coalescing with an
// individually-submitted identical member), the served result carries
// paper-shaped curves — per-phase breakdowns summing to rank-seconds,
// efficiency non-increasing, a fitted serial fraction — identical
// resubmission is a cache hit, and the persisted result survives a server
// restart byte-identically.
func TestScalingLifecycle(t *testing.T) {
	storeDir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	c1 := testClient(ts1)

	// An identical member submitted individually first: the sweep must
	// coalesce onto its stored result instead of recomputing.
	individual := sedovSpec(3)
	individual.Cores = 12
	iv, err := s1.Submit(individual)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, iv.ID, StateCompleted, 60*time.Second)

	scl, err := c1.SubmitScaling(ctx, sedovScaling(3, 12, 24, 48))
	if err != nil {
		t.Fatal(err)
	}
	if scl.State == client.StateCompleted {
		t.Fatal("fresh sweep reported completed at submission")
	}
	if len(scl.Members) != 3 {
		t.Fatalf("sweep has %d members, want 3", len(scl.Members))
	}
	for _, m := range scl.Members {
		if m.Cores == 12 {
			if m.Hash != iv.Hash {
				t.Fatalf("12-core member hash %s, want the individual job's %s", m.Hash, iv.Hash)
			}
			jv, ok := s1.Get(m.JobID)
			if !ok || !jv.CacheHit {
				t.Fatalf("12-core member did not coalesce with the stored result: %+v", jv)
			}
		}
	}

	view := waitScaling(t, s1, scl.ID, 120*time.Second)
	if view.State != StateCompleted {
		t.Fatalf("sweep ended %s: %s", view.State, view.Error)
	}
	res, err := c1.Scaling(ctx, scl.ID)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Result
	if r == nil {
		t.Fatal("completed sweep carries no result")
	}
	if r.Mode != experiments.ScalingStrong || len(r.Arms) != 1 || len(r.Arms[0].Points) != 3 {
		t.Fatalf("result shape: mode=%s arms=%d", r.Mode, len(r.Arms))
	}
	pts := r.Arms[0].Points
	for i, p := range pts {
		if p.Cores != []int{12, 24, 48}[i] {
			t.Fatalf("point %d at %d cores, want ladder order", i, p.Cores)
		}
		if p.SecondsPerStep <= 0 {
			t.Fatalf("point at %d cores has no time/step", p.Cores)
		}
		total := p.Phases.Total()
		if p.RankSeconds <= 0 || math.Abs(total-p.RankSeconds) > 1e-6*p.RankSeconds {
			t.Fatalf("point at %d cores: phases sum %.12g != rank-seconds %.12g", p.Cores, total, p.RankSeconds)
		}
		if i > 0 && p.Efficiency > pts[i-1].Efficiency*1.02 {
			t.Fatalf("parallel efficiency rose along the ladder: %.3f after %.3f", p.Efficiency, pts[i-1].Efficiency)
		}
		if p.POP == nil || p.POP.ParallelEfficiency <= 0 || p.POP.ParallelEfficiency > 1+1e-9 {
			t.Fatalf("point at %d cores: POP metrics %+v", p.Cores, p.POP)
		}
	}
	if pts[0].Speedup != 1 || pts[0].Efficiency != 1 {
		t.Fatalf("base point speedup %.3f / efficiency %.3f, want 1/1", pts[0].Speedup, pts[0].Efficiency)
	}
	fit := r.Arms[0].Fit
	if fit == nil || fit.SerialFraction < 0 || fit.SerialFraction > 1 {
		t.Fatalf("Amdahl fit %+v", fit)
	}

	// Identical resubmission (with the ladder spelled differently) is a
	// cache hit on the same hash.
	respell := sedovScaling(3, 48, 12, 24, 24)
	again, err := c1.SubmitScaling(ctx, respell)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != client.StateCompleted || !again.CacheHit || again.Hash != view.Hash {
		t.Fatalf("resubmission: state=%s cacheHit=%v hash match=%v", again.State, again.CacheHit, again.Hash == view.Hash)
	}
	raw1, err := rawScalingResult(ts1.URL, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	// Restart: a brand-new store and server over the same directory serve
	// the identical sweep byte-identically from disk.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 2, Store: st2})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := testClient(ts2)

	hit, err := c2.SubmitScaling(ctx, sedovScaling(3, 12, 24, 48))
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != client.StateCompleted || !hit.CacheHit {
		t.Fatalf("restart resubmission: state=%s cacheHit=%v", hit.State, hit.CacheHit)
	}
	raw2, err := rawScalingResult(ts2.URL, hit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("restart served a different result payload:\n%s\nvs\n%s", raw1, raw2)
	}
}

// rawScalingResult fetches the raw persisted result JSON of a scaling view
// (the byte-identity contract is on the stored bytes, not a re-encoding).
func rawScalingResult(base, id string) ([]byte, error) {
	resp, err := http.Get(base + "/v1/scaling/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var view struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, err
	}
	return view.Result, nil
}

// TestScalingWeakMode runs a weak ladder end to end: member particle
// counts grow with the machine and the result reports weak efficiencies.
func TestScalingWeakMode(t *testing.T) {
	s := New(Options{Workers: 2, Store: tempStore(t)})
	defer s.Close()

	sw := experiments.ScalingSweep{
		Base:             sedovSpec(2),
		Cores:            []int{12, 24},
		Mode:             experiments.ScalingWeak,
		ParticlesPerCore: 18,
	}
	view, err := s.Scaling.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	got := waitScaling(t, s, view.ID, 120*time.Second)
	if got.State != StateCompleted {
		t.Fatalf("weak sweep ended %s: %s", got.State, got.Error)
	}
	ns := map[int]int{}
	for _, m := range got.Members {
		ns[m.Cores] = m.N
	}
	if ns[12] != 216 || ns[24] != 432 {
		t.Fatalf("weak member Ns %v, want 216 and 432", ns)
	}
	var res experiments.ScalingResult
	if err := json.Unmarshal(got.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Mode != experiments.ScalingWeak || res.Arms[0].Fit != nil {
		t.Fatalf("weak result mode=%s fit=%v, want weak with no Amdahl fit", res.Mode, res.Arms[0].Fit)
	}
	if len(res.Arms[0].Points) != 2 || res.Arms[0].Points[1].N != 432 {
		t.Fatalf("weak points %+v", res.Arms[0].Points)
	}
}

// TestDeleteLifecycles covers the DELETE routes: 404 for unknown ids, 409
// for live resources, 204 for terminal ones — after which the record is
// gone but the stored result still serves cache hits.
func TestDeleteLifecycles(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Store: st})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	assertAPIErr := func(err error, status int, code string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status || apiErr.Code != code {
			t.Fatalf("error %v, want %d/%s", err, status, code)
		}
	}

	assertAPIErr(c.DeleteJob(ctx, "job-999999"), 404, "unknown_job")
	assertAPIErr(c.DeleteExperiment(ctx, "exp-999999"), 404, "unknown_experiment")
	assertAPIErr(c.DeleteScaling(ctx, "scl-999999"), 404, "unknown_scaling")

	// A slow job is deletable only after it terminates.
	slow, err := s.Submit(sedovSpec(500))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, slow.ID, StateRunning, 30*time.Second)
	assertAPIErr(c.DeleteJob(ctx, slow.ID), 409, "conflict")
	if err := s.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, slow.ID, StateCancelled, 30*time.Second)
	if err := c.DeleteJob(ctx, slow.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(slow.ID); ok {
		t.Fatal("deleted job still listed")
	}

	// A completed scaling experiment deletes cleanly; the persisted result
	// still serves the identical resubmission as a cache hit.
	scl, err := c.SubmitScaling(ctx, sedovScaling(2, 12, 24))
	if err != nil {
		t.Fatal(err)
	}
	waitScaling(t, s, scl.ID, 120*time.Second)
	if err := c.DeleteScaling(ctx, scl.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Scaling.Get(scl.ID); ok {
		t.Fatal("deleted scaling experiment still listed")
	}
	hit, err := c.SubmitScaling(ctx, sedovScaling(2, 12, 24))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("stored result lost after record deletion")
	}
	if err := c.DeleteScaling(ctx, hit.ID); err != nil {
		t.Fatal(err)
	}

	// Experiments: delete a completed convergence sweep.
	exp, err := c.SubmitExperiment(ctx, sedovSweep(2, 150, 300))
	if err != nil {
		t.Fatal(err)
	}
	expView := waitExperiment(t, s, exp.ID, 120*time.Second)
	if expView.State != StateCompleted {
		t.Fatalf("experiment ended %s: %s", expView.State, expView.Error)
	}
	if err := c.DeleteExperiment(ctx, exp.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Experiments.Get(exp.ID); ok {
		t.Fatal("deleted experiment still listed")
	}
}

// TestMemberDoneVanishedRecord pins the collector-wedge fix: a member
// whose job record vanished (deleted or pruned — both only possible once
// terminal) must yield an already-closed channel, never a nil one that
// would block the experiment forever.
func TestMemberDoneVanishedRecord(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	select {
	case <-s.memberDone("job-999999"):
	default:
		t.Fatal("memberDone for a vanished record is not closed")
	}
}

// TestDeleteReclaimsCache pins the memory-cache reclaim: on a store-less
// server, deleting the last record carrying a hash drops its cached
// result; while another record shares the hash, the entry survives.
func TestDeleteReclaimsCache(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	first, err := s.Submit(sedovSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateCompleted, 60*time.Second)
	second, err := s.Submit(sedovSpec(2)) // cache-hit record, same hash
	if err != nil {
		t.Fatal(err)
	}
	hash := first.Hash

	cached := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.jobs.cachedLocked(hash)
		return ok
	}
	if !cached() {
		t.Fatal("completed result not in the memory cache")
	}
	if err := s.DeleteJob(first.ID); err != nil {
		t.Fatal(err)
	}
	if !cached() {
		t.Fatal("cache entry reclaimed while a second record still carries the hash")
	}
	if err := s.DeleteJob(second.ID); err != nil {
		t.Fatal(err)
	}
	if cached() {
		t.Fatal("cache entry not reclaimed after the last record was deleted")
	}
}
