package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/pkg/client"
)

// sedovSweep is the canonical test experiment: a fast 3-point Sedov ladder
// (the Sedov scenario registers an analytic reference, so members carry L1
// density norms).
func sedovSweep(steps int, ns ...int) experiments.Sweep {
	return experiments.Sweep{Base: sedovSpec(steps), Ns: ns}
}

func waitExperiment(t *testing.T, s *Server, id string, timeout time.Duration) ExperimentView {
	t.Helper()
	done, ok := s.Experiments.Done(id)
	if !ok {
		t.Fatalf("experiment %s unknown", id)
	}
	select {
	case <-done:
	case <-time.After(timeout):
		v, _ := s.Experiments.Get(id)
		t.Fatalf("experiment %s stuck in %s: %+v", id, v.State, v)
	}
	v, ok := s.Experiments.Get(id)
	if !ok {
		t.Fatalf("experiment %s disappeared", id)
	}
	return v
}

// TestExperimentLifecycle is the acceptance path of the experiment
// resource: a 3-point sweep runs through the batch pipeline, members
// coalesce with an individually submitted identical job, the served result
// carries per-N norms and a fitted convergence order, identical
// resubmission is a cache hit, and the persisted regression survives a
// server restart byte-identically.
func TestExperimentLifecycle(t *testing.T) {
	storeDir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Workers: 2, Store: st1})
	ts1 := httptest.NewServer(s1.Handler())
	c1 := testClient(ts1)

	// An individually submitted job identical to the N=512 member: the
	// sweep must coalesce onto its stored result instead of recomputing.
	individual := sedovSpec(3)
	individual.Params.N = 512
	iv, err := s1.Submit(individual)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, iv.ID, StateCompleted, 60*time.Second)

	exp, err := c1.SubmitExperiment(ctx, sedovSweep(3, 216, 512, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if exp.State == client.StateFailed {
		t.Fatalf("experiment failed on submit: %s", exp.Error)
	}
	if len(exp.Members) != 3 {
		t.Fatalf("experiment has %d members, want 3", len(exp.Members))
	}
	for _, m := range exp.Members {
		if m.N == 512 {
			if m.Hash != iv.Hash {
				t.Fatalf("member N=512 hash %s, want the individual job's %s", m.Hash, iv.Hash)
			}
			mj, err := c1.Job(ctx, m.JobID)
			if err != nil {
				t.Fatal(err)
			}
			if !mj.CacheHit {
				t.Fatal("member identical to a completed job did not coalesce onto its result")
			}
		}
	}

	final, err := c1.WaitExperiment(ctx, exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != client.StateCompleted {
		t.Fatalf("experiment ended %s: %s", final.State, final.Error)
	}
	res := final.Result
	if res == nil {
		t.Fatal("completed experiment carries no result")
	}
	if res.Scenario != "sedov" || res.Field != "density-l1-trimmed" {
		t.Fatalf("result header %+v", res)
	}
	if len(res.Points) != 3 {
		t.Fatalf("result has %d points, want 3", len(res.Points))
	}
	wantNs := []int{216, 512, 1000}
	for i, p := range res.Points {
		if p.N != wantNs[i] {
			t.Fatalf("point %d has N=%d, want %d (sorted ladder)", i, p.N, wantNs[i])
		}
		if p.L1Density <= 0 || p.Particles <= 0 || p.Hash == "" {
			t.Fatalf("point %+v incomplete", p)
		}
	}
	if res.Fit.Slope == 0 || res.Fit.Order != -3*res.Fit.Slope {
		t.Fatalf("fit %+v inconsistent", res.Fit)
	}

	// Identical resubmission on the same server: instant cache hit with the
	// same sweep hash (ladder order and template N are canonicalized away).
	again, err := c1.SubmitExperiment(ctx, sedovSweep(3, 1000, 216, 512, 512))
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != client.StateCompleted {
		t.Fatalf("resubmission not a cache hit: %+v", again)
	}
	if again.Hash != final.Hash {
		t.Fatalf("equivalent sweeps hashed differently: %s vs %s", again.Hash, final.Hash)
	}

	rawFirst, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	// Restart over the same store: the persisted regression is served as a
	// store-level cache hit, byte-identical.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 2, Store: st2})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := testClient(ts2)

	revived, err := c2.SubmitExperiment(ctx, sedovSweep(3, 216, 512, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !revived.CacheHit || revived.State != client.StateCompleted {
		t.Fatalf("restarted server did not serve the persisted experiment: %+v", revived)
	}
	rawSecond, err := json.Marshal(revived.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawFirst, rawSecond) {
		t.Fatalf("experiment result differs across restart:\n%s\nvs\n%s", rawFirst, rawSecond)
	}

	// The member results themselves are also store-level cache hits now.
	member := sedovSpec(3)
	member.Params.N = 1000
	mv, err := s2.Submit(member)
	if err != nil {
		t.Fatal(err)
	}
	if !mv.CacheHit {
		t.Fatal("member result not addressable after restart")
	}
}

// TestExperimentValidation: sweeps that cannot converge are rejected up
// front with the envelope, not discovered mid-run.
func TestExperimentValidation(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	// A scenario without an analytic reference cannot be swept.
	cube := experiments.Sweep{
		Base: scenario.JobSpec{Spec: scenario.Spec{
			Scenario: "cube",
			Params:   scenario.Params{N: 216, NNeighbors: 20},
			Steps:    2,
		}},
		Ns: []int{216, 512},
	}
	if _, err := s.Experiments.Submit(cube); err == nil {
		t.Fatal("sweep of a reference-less scenario accepted")
	}

	// Fewer than two distinct ladder points is not a sweep.
	if _, err := s.Experiments.Submit(sedovSweep(2, 216, 216)); err == nil {
		t.Fatal("single-point sweep accepted")
	}
	// Non-positive particle counts are rejected.
	if _, err := s.Experiments.Submit(sedovSweep(2, 0, 216)); err == nil {
		t.Fatal("zero-N sweep accepted")
	}
	// Unknown scenarios are rejected.
	warp := experiments.Sweep{
		Base: scenario.JobSpec{Spec: scenario.Spec{Scenario: "warp-drive", Steps: 1}},
		Ns:   []int{100, 200},
	}
	if _, err := s.Experiments.Submit(warp); err == nil {
		t.Fatal("unknown-scenario sweep accepted")
	}
}

// TestExperimentActiveCoalescing: two identical sweeps submitted while the
// first is still running share one experiment record.
func TestExperimentActiveCoalescing(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	sw := sedovSweep(3, 216, 512)
	first, err := s.Experiments.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	dup, err := s.Experiments.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != first.ID {
		t.Fatalf("active duplicate sweep created a second experiment: %s vs %s", dup.ID, first.ID)
	}
	final := waitExperiment(t, s, first.ID, 120*time.Second)
	if final.State != StateCompleted {
		t.Fatalf("experiment ended %s: %s", final.State, final.Error)
	}

	// Listing pages the experiment out.
	exps, next := s.Experiments.List("", 10)
	if len(exps) != 1 || next != "" || exps[0].ID != first.ID {
		t.Fatalf("experiment listing %+v next=%q", exps, next)
	}
}

// TestExperimentMemberFailureFailsExperiment: a sweep whose members cannot
// run ends failed with a diagnostic, not hung.
func TestExperimentMemberFailureFailsExperiment(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()

	// NNeighbors wildly above N makes the member generation/run fail.
	sw := experiments.Sweep{
		Base: scenario.JobSpec{Spec: scenario.Spec{
			Scenario: "sedov",
			Params:   scenario.Params{NNeighbors: 20, Extra: map[string]float64{"energy": 1}},
			Steps:    1000000, // cancelled below; failure path driven by cancel
		}},
		Ns: []int{1000, 2000},
	}
	exp, err := s.Experiments.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the members: the experiment must observe the terminal
	// non-completed members and fail.
	for _, m := range exp.Members {
		_ = s.Cancel(m.JobID)
	}
	final := waitExperiment(t, s, exp.ID, 60*time.Second)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("experiment with cancelled members ended %s (%q), want failed",
			final.State, final.Error)
	}
}
