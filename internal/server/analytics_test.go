package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/part"
	"repro/internal/scenario"
	"repro/internal/store"
)

// clusterFleetSpec is one member of the seeded verification fleet: a small
// serial sedov run (serial, so the fault-injection hook can reach it). The
// blast energy is the fleet's healthy variation: each job is a distinct
// spec (its own hash and stored result) whose physics differs smoothly, so
// feature columns vary without hiding the injected anomalies. It runs
// NaNFaultStep steps, so the injections land after the final step.
func clusterFleetSpec(n int, energy float64) scenario.JobSpec {
	return scenario.JobSpec{
		Spec: scenario.Spec{
			Scenario: "sedov",
			Params: scenario.Params{
				N: n, NNeighbors: 20,
				Extra: map[string]float64{"energy": energy},
			},
			Steps: NaNFaultStep,
		},
		Exec: scenario.Exec{Backend: scenario.BackendSerial},
	}
}

// TestClusterAnalyticsEndToEnd is the acceptance path of POST
// /v1/analytics/cluster: seed a fleet of completed jobs with two injected
// anomalies (a NaN blowup and a gross energy corruption), cluster the
// persisted corpus, and assert the improper noise component flags exactly
// the injected runs — on the analysis result, on the flagged jobs' views,
// on /statusz, and on /metricsz — then prove an identical resubmission
// across a server restart is a byte-identical store cache hit.
func TestClusterAnalyticsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The injection hooks key on the realized particle count (the healthy
	// fleet runs at N=216, the anomalies at distinct cube counts). Both
	// corruptions land after the final step, so the dynamics stay finite
	// and the jobs still complete through verification: the NaN run is
	// the one NaNFault poisons with a NaN internal energy, the regression
	// run has every velocity scaled 10x — a gross, untrimmable error
	// against the reference plus a huge kinetic-energy conservation drift.
	const nanN, badN = NaNFaultN, 512
	inject := func(step int, ps *part.Set) {
		NaNFault(step, ps)
		if step == NaNFaultStep && ps.NLocal == badN {
			for i := range ps.Vel {
				ps.Vel[i] = ps.Vel[i].Scale(10)
			}
		}
	}
	s := New(Options{Workers: 4, Store: st, FaultInjection: inject})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := testClient(ts)
	ctx := context.Background()

	// 20 healthy runs across a gentle blast-energy ramp, plus the two
	// anomalous runs.
	var specs []scenario.JobSpec
	for i := 0; i < 20; i++ {
		specs = append(specs, clusterFleetSpec(216, 1+0.005*float64(i)))
	}
	specs = append(specs, clusterFleetSpec(nanN, 1), clusterFleetSpec(badN, 1))

	hashByID := map[string]string{}
	var ids []string
	for _, spec := range specs {
		view, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, view.ID)
		hashByID[view.ID] = view.Hash
	}
	for _, id := range ids {
		waitState(t, s, id, StateCompleted, 120*time.Second)
	}
	nanHash := hashByID[ids[len(ids)-2]]
	badHash := hashByID[ids[len(ids)-1]]

	// Cluster on physics features only: phase time shares are wall-clock
	// scheduling noise under a contended 4-worker pool (queue-wait spans
	// zero to most-of-the-span across submission order), which would
	// dominate the standardized distances and flag healthy stragglers.
	spec := cluster.Spec{
		Scenario: "sedov",
		Features: []string{
			cluster.GroupNorms, cluster.GroupPlateau,
			cluster.GroupConservation, cluster.GroupWatchdogs,
		},
		KLadder:       []int{1, 2},
		MinProportion: 0.15,
	}
	cls, err := c.SubmitCluster(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if cls.CacheHit {
		t.Fatal("first analysis reported a cache hit")
	}
	cls, err = c.WaitCluster(ctx, cls.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cls.State != string(StateCompleted) || cls.Result == nil {
		t.Fatalf("analysis ended %s (err=%q)", cls.State, cls.Error)
	}
	if cls.Jobs != len(specs) {
		t.Fatalf("analysis covered %d jobs, want %d", cls.Jobs, len(specs))
	}

	flagged := map[string]bool{}
	for _, m := range cls.Result.Members {
		if m.Anomaly != (m.Component == 0) {
			t.Fatalf("member %s: anomaly=%v component=%d", m.Hash, m.Anomaly, m.Component)
		}
		if m.Anomaly {
			flagged[m.Hash] = true
			if m.NoiseProb < 0.5 {
				t.Fatalf("flagged member %s has noise probability %v", m.Hash, m.NoiseProb)
			}
		}
	}
	if len(flagged) != 2 || !flagged[nanHash] || !flagged[badHash] {
		t.Fatalf("flagged %v, want exactly the injected runs {%s, %s}", flagged, nanHash, badHash)
	}

	// The flagged jobs' views carry the anomaly rollup; healthy ones don't.
	nanJob, err := c.Job(ctx, ids[len(ids)-2])
	if err != nil {
		t.Fatal(err)
	}
	if nanJob.Anomaly == nil || nanJob.Anomaly.Analysis != cls.ID || nanJob.Anomaly.Scenario != "sedov" {
		t.Fatalf("NaN job anomaly rollup %+v, want mark from %s", nanJob.Anomaly, cls.ID)
	}
	healthy, err := c.Job(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Anomaly != nil {
		t.Fatalf("healthy job carries an anomaly mark: %+v", healthy.Anomaly)
	}

	// /statusz renders the per-scenario anomaly table; /metricsz carries the
	// cumulative flag counter.
	statusz := httpGetBody(t, ts.URL+"/statusz")
	if !strings.Contains(statusz, "anomalies") ||
		!regexp.MustCompile(`(?m)^sedov\s+2$`).MatchString(statusz) {
		t.Fatalf("/statusz missing the anomaly table:\n%s", statusz)
	}
	metricsz := httpGetBody(t, ts.URL+"/metricsz")
	if !strings.Contains(metricsz, `analytics_anomalies_total{scenario="sedov"} 2`) {
		t.Fatalf("/metricsz missing analytics_anomalies_total:\n%s", metricsz)
	}

	// Identical resubmission on the live server: memory-layer cache hit,
	// byte-identical result.
	again, err := c.SubmitCluster(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.State != string(StateCompleted) {
		t.Fatalf("resubmission not a completed cache hit: state=%s cacheHit=%v", again.State, again.CacheHit)
	}

	raw1, ok := s.Analyses.Get(cls.ID)
	if !ok || raw1.Result == nil {
		t.Fatal("first analysis record lost its result")
	}

	// Restart: a fresh server over the same store directory must serve the
	// identical analysis as a byte-identical cache hit, and a cache-hit
	// job resubmission must recover its anomaly mark from that analysis.
	ts.Close()
	s.Close()
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Workers: 1, Store: st2})
	defer s2.Close()

	v2, err := s2.Analyses.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit || v2.State != StateCompleted {
		t.Fatalf("post-restart resubmission not a cache hit: state=%s cacheHit=%v (err=%q)",
			v2.State, v2.CacheHit, v2.Error)
	}
	if !bytes.Equal(raw1.Result, v2.Result) {
		t.Fatalf("post-restart result bytes differ:\nfirst: %s\nafter: %s", raw1.Result, v2.Result)
	}
	nanAgain, err := s2.Submit(clusterFleetSpec(nanN, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !nanAgain.CacheHit || nanAgain.Anomaly == nil {
		t.Fatalf("post-restart NaN job view lost its anomaly mark: %+v", nanAgain)
	}
}

// TestClusterAnalyticsValidation covers the request-level failure modes: an
// undersized corpus and an invalid spec.
func TestClusterAnalyticsValidation(t *testing.T) {
	// An empty corpus: too few reports.
	s := New(Options{Workers: 1, Store: tempStore(t)})
	defer s.Close()
	if _, err := s.Analyses.Submit(cluster.Spec{}); err == nil ||
		!strings.Contains(err.Error(), "need at least") {
		t.Fatalf("empty-corpus submission error = %v", err)
	}

	// Invalid spec knobs reject before any dataset work.
	if _, err := s.Analyses.Submit(cluster.Spec{Features: []string{"no-such-group"}}); err == nil {
		t.Fatal("unknown feature group accepted")
	}
}

// httpGetBody fetches a URL and returns its body as a string.
func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
