package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/verify"
	"repro/pkg/client"
)

// sodSpec is a small Sod job whose exact-Riemann verification passes the
// registered thresholds (calibrated: trimmed-L1 density ~0.05 at this
// resolution against a 0.1 bound).
func sodSpec(steps int) scenario.JobSpec {
	return scenario.JobSpec{Spec: scenario.Spec{
		Scenario: "sod",
		Params:   scenario.Params{N: 1000, NNeighbors: 30},
		Steps:    steps,
		Cores:    4,
	}}
}

// TestMetricsEndToEndAndRestart is the acceptance path of the verification
// subsystem: a completed sod job serves a persisted Report whose
// exact-Riemann L1 density error passes the registered threshold, and the
// report survives a server restart byte-identically (reloaded from the
// store).
func TestMetricsEndToEndAndRestart(t *testing.T) {
	storeDir := t.TempDir()
	spec := sodSpec(10)
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
	done := waitState(t, s1, view.ID, StateCompleted, 120*time.Second)

	raw1, err := c1.RawMetrics(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep verify.Report
	if err := json.Unmarshal(raw1, &rep); err != nil {
		t.Fatalf("metrics do not decode as a verify.Report: %v", err)
	}
	if rep.Scenario != "sod" || rep.Reference != "riemann-sod" {
		t.Fatalf("report header %s/%s, want sod/riemann-sod", rep.Scenario, rep.Reference)
	}
	if rep.Compared == 0 || rep.SimTime <= 0 {
		t.Fatalf("report compared=%d simTime=%g", rep.Compared, rep.SimTime)
	}
	// The acceptance bar: the exact-Riemann L1 density error passes the
	// registered threshold.
	var densityCheck *verify.Check
	for i := range rep.Checks {
		if rep.Checks[i].Name == "density-l1-trimmed" {
			densityCheck = &rep.Checks[i]
		}
	}
	if densityCheck == nil {
		t.Fatalf("no density check in report: %+v", rep.Checks)
	}
	if !densityCheck.Pass || densityCheck.Value > densityCheck.Limit {
		t.Fatalf("density check failed: %+v", *densityCheck)
	}
	if !rep.Pass {
		t.Fatalf("report did not pass: %+v", rep.Checks)
	}
	if rep.Plateau == nil || rep.Plateau.Particles == 0 {
		t.Fatalf("report missing the star-region plateau estimate: %+v", rep.Plateau)
	}

	// The job view carries the verification rollup (the job-list /
	// batch-level summary).
	if done.Verify == nil || !done.Verify.Pass || done.Verify.Reference != "riemann-sod" {
		t.Fatalf("job view rollup %+v", done.Verify)
	}
	if done.Verify.L1Density != rep.L1Density {
		t.Fatalf("rollup l1Density %g, report %g", done.Verify.L1Density, rep.L1Density)
	}

	// /v1/store reports the store with the entry, its report, and traffic.
	stats, err := c1.StoreStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entries != 1 || stats.Reports != 1 {
		t.Fatalf("store stats %+v, want 1 entry with 1 report", stats)
	}

	ts1.Close()
	s1.Close()

	// Restart: a fresh store handle and server over the same directory.
	st2, err := store.Open(storeDir, store.Options{})
	if err != nil {
		t.Fatal(err)
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
	// The cache-hit job carries the rollup reloaded from the store.
	if again.Verify == nil || !again.Verify.Pass {
		t.Fatalf("cache-hit job view rollup %+v", again.Verify)
	}
	raw2, err := c2.RawMetrics(ctx, again.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("report bytes differ across restart:\n%s\nvs\n%s", raw1, raw2)
	}
}

// TestMetricsWithoutReference: a scenario with no analytic solution still
// reports conservation drift (and passes its drift-only thresholds).
func TestMetricsWithoutReference(t *testing.T) {
	s := New(Options{Workers: 2, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	spec := scenario.JobSpec{Spec: scenario.Spec{
		Scenario: "cube",
		Params:   scenario.Params{N: 216, NNeighbors: 20},
		Steps:    3,
		Cores:    2,
	}}
	view, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, view.ID, StateCompleted, 60*time.Second)

	rep, err := c.Metrics(ctx, view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reference != "" || rep.Fields != nil {
		t.Fatalf("cube report should be conservation-only: %+v", rep)
	}
	var names []string
	for _, c := range rep.Checks {
		names = append(names, c.Name)
	}
	if len(names) != 2 {
		t.Fatalf("cube checks %v, want the two drift checks", names)
	}
}

func TestMetricsErrorStates(t *testing.T) {
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	wantCode := func(err error, code string) {
		t.Helper()
		var apiErr *client.APIError
		if err == nil || !errors.As(err, &apiErr) || apiErr.Code != code {
			t.Fatalf("error %v, want envelope code %s", err, code)
		}
	}

	// Unknown job.
	_, err := c.Metrics(ctx, "job-999999")
	wantCode(err, CodeUnknownJob)

	// Not-yet-completed job: 409 conflict.
	view, err := s.Submit(sedovSpec(50))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Metrics(ctx, view.ID)
	wantCode(err, CodeConflict)
	if err := s.Cancel(view.ID); err != nil {
		t.Fatal(err)
	}
}
