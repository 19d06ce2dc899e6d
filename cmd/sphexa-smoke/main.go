// Command sphexa-smoke is the /v1 API contract smoke: against a running
// sphexa-serve instance it drives, through the reusable pkg/client, exactly
// the guarantees the API redesign makes —
//
//  1. a small Sod convergence experiment (POST /v1/experiments) completes
//     and serves per-N L1 density norms with a fitted convergence order in
//     a sane band;
//  2. resubmitting the identical sweep is a cache hit served from the
//     persisted result;
//  3. the same member JobSpec under a different execution backend hashes
//     (and stores) differently — backends never share results;
//  4. step telemetry works end to end: the completed serial job serves a
//     flight-recorder track (contiguous per-step samples, clean watchdog
//     rollup on a healthy run), and the removed pre-/v1 alias routes and
//     the removed job-scoped profile route 404;
//  5. a 3-point strong-scaling sweep (POST /v1/scaling) on a modeled Piz
//     Daint sod ladder returns paper-shaped curves — per-phase breakdowns
//     summing to the rank-seconds totals, parallel efficiency monotone
//     non-increasing past the knee, a fitted serial fraction in a sane
//     band — and its identical resubmission is a store-level cache hit;
//  6. the observability surfaces work end to end: requests echo
//     X-Request-Id and carry Server-Timing, /statusz shows the route
//     latency digest and job phase totals for the traffic the earlier legs
//     generated, and /metricsz serves the Prometheus exposition with the
//     request and lifecycle families populated;
//  7. real-run trace export and metrics history work end to end: a
//     parallel sod job's GET /v1/jobs/{id}/trace serves valid Chrome
//     trace-event JSON (metadata + complete events only, timestamps
//     monotone per track) whose per-rank per-phase slice durations sum to
//     the persisted report's timing record within 1e-9, with measured POP
//     efficiency metrics beside the modeled prediction; re-fetching the
//     trace through an identical cache-hit resubmission returns
//     byte-identical JSON; and GET /v1/metrics/history serves the sampled
//     Go-runtime series with at least 256 retained slots;
//  8. fleet analytics work end to end: a seeded sedov fleet with one
//     member NaN-poisoned by the server's fault hook (server.NaNFault) is
//     clustered by POST /v1/analytics/cluster and the improper noise
//     component flags exactly the poisoned run — on the result, the job
//     view, /statusz, and /metricsz — with the identical resubmission
//     served as a cache hit.
//
// The server must run with -inject-nan (and -history-interval 1s, so the
// history leg sees samples soon); without the hook the analytics leg fails
// with "sphexa-serve was not started with -inject-nan". Every workload size
// and calibrated band is a constant below, and -addr, an absolute http(s)
// URL, is the only flag. Any regression exits non-zero, which is what CI
// keys on.
//
//	sphexa-serve -addr 127.0.0.1:8080 -store-dir /tmp/store -history-interval 1s -inject-nan &
//	sphexa-smoke -addr http://127.0.0.1:8080
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs/history"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/pkg/client"
)

// The contract's workloads and calibrated bands.
const (
	scen                    = "sod" // swept; needs an analytic reference
	steps, neighbors, cores = 10, 30, 4
	minOrder, maxOrder      = 0.2, 4.0 // fitted convergence order; measured ~1.0
	scalingN, scalingSteps  = 4000, 5
	maxSerial               = 0.6 // fitted Amdahl serial fraction; measured ~0.01
	traceN                  = 1000
	fleet, fleetN           = 10, 216          // healthy analytics members
	timeout                 = 10 * time.Minute // per leg
)

var (
	ns           = []int{500, 1000, 2000} // convergence ladder
	scalingCores = []int{12, 48, 192}     // modeled Piz Daint ladder
)

// errNotInjected is the analytics leg's failure when the poisoned member ran
// clean: the server lacks its fault hook, so there is no anomaly to find.
var errNotInjected = errors.New("sphexa-serve was not started with -inject-nan")

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "sphexa-serve base URL")
	flag.Parse()
	if u, err := url.Parse(*addr); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		fmt.Fprintf(os.Stderr, "sphexa-smoke: -addr %q is not an absolute http:// or https:// URL with a host\n", *addr)
		os.Exit(2)
	}
	c := client.New(*addr, client.WithRetry(client.RetryPolicy{MaxAttempts: 5}))
	for _, leg := range []func(ctx context.Context, c *client.Client, addr string) error{
		runConvergence, runScaling, runObservability, runTraceHistory, runAnalytics,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		err := leg(ctx, c, *addr)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sphexa-smoke: FAIL:", err)
			os.Exit(1)
		}
	}
	fmt.Println("sphexa-smoke: PASS")
}

// runConvergence drives the /v1/experiments contract (legs 1-4 above).
func runConvergence(ctx context.Context, c *client.Client, addr string) error {
	// The server may still be binding its listener (CI starts it in the
	// background); retry the health probe briefly.
	var err error
	for i := 0; i < 50; i++ {
		if err = c.Health(ctx); err == nil {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became healthy: %w", err)
		case <-time.After(200 * time.Millisecond):
		}
	}
	if err != nil {
		return fmt.Errorf("server never became healthy: %w", err)
	}

	sweep := experiments.Sweep{
		Base: scenario.JobSpec{Spec: scenario.Spec{
			Scenario: scen,
			Params:   scenario.Params{NNeighbors: neighbors},
			Steps:    steps,
			Cores:    cores,
		}},
		Ns: ns,
	}

	// 1. The convergence experiment completes with norms and a sane order.
	exp, err := c.SubmitExperiment(ctx, sweep)
	if err != nil {
		return fmt.Errorf("submitting experiment: %w", err)
	}
	fmt.Printf("experiment %s (%s, N=%v): %s\n", exp.ID, scen, ns, exp.State)
	if exp, err = c.WaitExperiment(ctx, exp.ID); err != nil {
		return fmt.Errorf("waiting for experiment: %w", err)
	}
	if exp.State != client.StateCompleted {
		return fmt.Errorf("experiment ended %s: %s", exp.State, exp.Error)
	}
	res := exp.Result
	if res == nil {
		return fmt.Errorf("completed experiment carries no result")
	}
	if len(res.Points) != len(ns) {
		return fmt.Errorf("result has %d points, want %d", len(res.Points), len(ns))
	}
	for _, p := range res.Points {
		fmt.Printf("  N=%-6d particles=%-6d L1(density)=%.4f pass=%v\n",
			p.N, p.Particles, p.L1Density, p.Pass)
		if p.L1Density <= 0 {
			return fmt.Errorf("point N=%d has no positive L1 density norm", p.N)
		}
	}
	fmt.Printf("  fitted convergence order %.3f (slope %.3f, R2 %.3f)\n",
		res.Fit.Order, res.Fit.Slope, res.Fit.R2)
	if res.Fit.Order < minOrder || res.Fit.Order > maxOrder {
		return fmt.Errorf("fitted convergence order %.3f outside [%g, %g]",
			res.Fit.Order, minOrder, maxOrder)
	}

	// 2. The identical sweep resubmitted is a cache hit from the persisted
	// result.
	again, err := c.SubmitExperiment(ctx, sweep)
	if err != nil {
		return fmt.Errorf("resubmitting experiment: %w", err)
	}
	if again.State != client.StateCompleted || !again.CacheHit {
		return fmt.Errorf("identical resubmission was not a cache hit: state=%s cacheHit=%v",
			again.State, again.CacheHit)
	}
	if again.Hash != exp.Hash {
		return fmt.Errorf("identical sweeps hashed differently: %s vs %s", exp.Hash, again.Hash)
	}
	fmt.Println("identical resubmission: cache hit")

	// 3. The same member spec under the serial backend is a different job
	// with a different stored result.
	parallelHash := res.Points[0].Hash
	serial := sweep.Base
	serial.Params.N = res.Points[0].N
	serial.Exec = scenario.Exec{Backend: scenario.BackendSerial}
	sj, err := c.Submit(ctx, serial)
	if err != nil {
		return fmt.Errorf("submitting serial-backend member: %w", err)
	}
	if sj.Hash == parallelHash {
		return fmt.Errorf("serial and parallel backends share hash %s", sj.Hash)
	}
	if sj, err = c.WaitJob(ctx, sj.ID); err != nil {
		return fmt.Errorf("waiting for serial job: %w", err)
	}
	if sj.State != client.StateCompleted {
		return fmt.Errorf("serial-backend job ended %s: %s", sj.State, sj.Error)
	}
	fmt.Printf("serial backend: distinct hash %.12s, completed\n", sj.Hash)

	// 4. Step telemetry: the completed serial job serves a full
	// flight-recorder track with a clean watchdog rollup.
	track, err := c.Telemetry(ctx, sj.ID)
	if err != nil {
		return fmt.Errorf("fetching telemetry track: %w", err)
	}
	if len(track.Samples) == 0 {
		return fmt.Errorf("completed job served an empty telemetry track")
	}
	first, last := track.Samples[0], track.Samples[len(track.Samples)-1]
	if first.Step != 1 || last.Step != steps {
		return fmt.Errorf("telemetry track spans steps %d..%d, want 1..%d",
			first.Step, last.Step, steps)
	}
	if track.Status != "ok" || len(track.Trips) != 0 {
		return fmt.Errorf("healthy run tripped watchdogs: status=%q trips=%v",
			track.Status, track.Trips)
	}
	fmt.Printf("telemetry: %d samples (stride %d), steps 1..%d, watchdogs clean\n",
		len(track.Samples), track.Stride, last.Step)

	// The removed pre-/v1 aliases and the job-scoped profile route must
	// 404 with no deprecation signal.
	for _, path := range []string{"/scenarios", "/jobs", "/storez", "/v1/jobs/" + sj.ID + "/profile"} {
		if _, _, err := get(ctx, addr+path, "", http.StatusNotFound); err != nil {
			return fmt.Errorf("removed route: %w", err)
		}
	}
	fmt.Println("removed routes: 404")
	return nil
}

// runScaling drives the /v1/scaling contract: a small strong-scaling sweep
// on a modeled Piz Daint ladder must return paper-shaped curves, and its
// identical resubmission must be a store-level cache hit.
func runScaling(ctx context.Context, c *client.Client, _ string) error {
	sweep := experiments.ScalingSweep{
		Base: scenario.JobSpec{
			Spec: scenario.Spec{
				Scenario: scen,
				Params:   scenario.Params{N: scalingN, NNeighbors: neighbors},
				Steps:    scalingSteps,
			},
			Exec: scenario.Exec{Machine: "daint"},
		},
		Cores: scalingCores,
	}

	scl, err := c.SubmitScaling(ctx, sweep)
	if err != nil {
		return fmt.Errorf("submitting scaling sweep: %w", err)
	}
	fmt.Printf("scaling %s (%s, N=%d, cores=%v): %s\n", scl.ID, scen, scalingN, scalingCores, scl.State)
	if scl, err = c.WaitScaling(ctx, scl.ID); err != nil {
		return fmt.Errorf("waiting for scaling sweep: %w", err)
	}
	if scl.State != client.StateCompleted {
		return fmt.Errorf("scaling sweep ended %s: %s", scl.State, scl.Error)
	}
	res := scl.Result
	if res == nil {
		return fmt.Errorf("completed scaling sweep carries no result")
	}
	if len(res.Arms) != 1 || len(res.Arms[0].Points) != len(scalingCores) {
		return fmt.Errorf("result shape: %d arms, want 1 with %d points", len(res.Arms), len(scalingCores))
	}
	pts := res.Arms[0].Points
	for i, p := range pts {
		fmt.Printf("  cores=%-5d ranks=%-3d t/step=%.4fs speedup=%.2f eff=%.3f (compute %.2f, halo %.2f, collective %.2f rank-s)\n",
			p.Cores, p.Ranks, p.SecondsPerStep, p.Speedup, p.Efficiency,
			p.Phases.Compute, p.Phases.Halo, p.Phases.Collective)
		// Per-phase breakdowns must sum to the per-rank clock totals.
		total := p.Phases.Total()
		if p.RankSeconds <= 0 || math.Abs(total-p.RankSeconds) > 1e-6*p.RankSeconds {
			return fmt.Errorf("point at %d cores: phases sum %.9g != rank-seconds %.9g", p.Cores, total, p.RankSeconds)
		}
		// Parallel efficiency must not recover past the knee (monotone
		// non-increasing along the ladder, small tolerance for ties).
		if i > 0 && p.Efficiency > pts[i-1].Efficiency*1.02 {
			return fmt.Errorf("parallel efficiency rose past the knee: %.3f at %d cores after %.3f at %d",
				p.Efficiency, p.Cores, pts[i-1].Efficiency, pts[i-1].Cores)
		}
	}
	fit := res.Arms[0].Fit
	if fit == nil {
		return fmt.Errorf("strong-scaling result carries no Amdahl fit")
	}
	fmt.Printf("  Amdahl fit: serial fraction %.4f, R2 %.3f (%d trimmed)\n",
		fit.SerialFraction, fit.R2, fit.Trimmed)
	if fit.SerialFraction < 0 || fit.SerialFraction > maxSerial {
		return fmt.Errorf("fitted serial fraction %.4f outside [0, %g]", fit.SerialFraction, maxSerial)
	}

	again, err := c.SubmitScaling(ctx, sweep)
	if err != nil {
		return fmt.Errorf("resubmitting scaling sweep: %w", err)
	}
	if again.State != client.StateCompleted || !again.CacheHit {
		return fmt.Errorf("identical scaling resubmission was not a cache hit: state=%s cacheHit=%v",
			again.State, again.CacheHit)
	}
	if again.Hash != scl.Hash {
		return fmt.Errorf("identical scaling sweeps hashed differently: %s vs %s", scl.Hash, again.Hash)
	}
	fmt.Println("identical scaling resubmission: cache hit")
	return nil
}

// runTraceHistory drives the trace-export and metrics-history contract: a
// parallel job's measured trace must be valid Chrome trace-event JSON whose
// per-rank per-phase durations reproduce the persisted timing record, must
// carry measured-beside-modeled POP metrics, and must re-fetch
// byte-identically through a cache-hit resubmission; the metrics-history
// endpoint must serve the sampled Go-runtime series under its retention
// contract.
func runTraceHistory(ctx context.Context, c *client.Client, _ string) error {
	spec := scenario.JobSpec{Spec: scenario.Spec{
		Scenario: scen,
		Params:   scenario.Params{N: traceN, NNeighbors: neighbors},
		Steps:    steps,
		Cores:    cores,
	}}
	job, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("submitting trace job: %w", err)
	}
	if job, err = c.WaitJob(ctx, job.ID); err != nil {
		return fmt.Errorf("waiting for trace job: %w", err)
	}
	if job.State != client.StateCompleted {
		return fmt.Errorf("trace job ended %s: %s", job.State, job.Error)
	}

	raw1, err := c.RawJobTrace(ctx, job.ID, client.TraceFormatPerfetto)
	if err != nil {
		return fmt.Errorf("fetching perfetto trace: %w", err)
	}
	var doc trace.Document
	if err := json.Unmarshal(raw1, &doc); err != nil {
		return fmt.Errorf("trace is not valid JSON: %w", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace document incomplete: unit=%q events=%d",
			doc.DisplayTimeUnit, len(doc.TraceEvents))
	}

	// Event schema: metadata and complete events only, positive durations,
	// timestamps monotone within each (pid, tid) track; engine slice
	// durations accumulate per rank and phase for the timing confrontation.
	last := map[[2]int]float64{}
	sums := map[int]map[string]float64{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				return fmt.Errorf("event %d: unexpected metadata %q", i, ev.Name)
			}
		case "X":
			if ev.Dur <= 0 {
				return fmt.Errorf("event %d (%s): non-positive duration %g", i, ev.Name, ev.Dur)
			}
			key := [2]int{ev.PID, ev.TID}
			if ev.TS < last[key]-1e-6 {
				return fmt.Errorf("event %d (%s): timestamp %.3fus regresses on track %v", i, ev.Name, ev.TS, key)
			}
			last[key] = ev.TS + ev.Dur
			if ev.PID == 1 {
				if sums[ev.TID] == nil {
					sums[ev.TID] = map[string]float64{}
				}
				sums[ev.TID][ev.Name] += ev.Dur / 1e6
			}
		default:
			return fmt.Errorf("event %d: unexpected phase type %q", i, ev.Ph)
		}
	}

	// Per-rank per-phase sums must reproduce the persisted report's timing
	// record within 1e-9 — the trace is a reassembly of those bytes, not a
	// second measurement.
	rawRep, err := c.RawMetrics(ctx, job.ID)
	if err != nil {
		return fmt.Errorf("fetching persisted report: %w", err)
	}
	var rep struct {
		Timing *core.RunTiming `json:"timing"`
	}
	if err := json.Unmarshal(rawRep, &rep); err != nil {
		return fmt.Errorf("decoding persisted report: %w", err)
	}
	if rep.Timing == nil || len(rep.Timing.PerRank) == 0 {
		return fmt.Errorf("persisted report carries no per-rank timing record")
	}
	for _, rk := range rep.Timing.PerRank {
		for phase, want := range map[string]float64{
			trace.PhaseCompute:    rk.Compute,
			trace.PhaseHalo:       rk.Halo,
			trace.PhaseCollective: rk.Collective,
		} {
			if got := sums[rk.Rank][phase]; math.Abs(got-want) > 1e-9 {
				return fmt.Errorf("rank %d %s: trace sums to %.12gs, persisted timing %.12gs",
					rk.Rank, phase, got, want)
			}
		}
	}
	fmt.Printf("trace: %d events, %d ranks, per-phase sums match persisted timing within 1e-9\n",
		len(doc.TraceEvents), len(rep.Timing.PerRank))

	if doc.POP == nil || doc.POP.Modeled == nil {
		return fmt.Errorf("trace lacks the measured-vs-modeled POP section: %+v", doc.POP)
	}
	mp, md := doc.POP.Measured, doc.POP.Modeled
	fmt.Printf("trace POP: measured LB=%.4f CommE=%.4f ParE=%.4f | modeled LB=%.4f CommE=%.4f ParE=%.4f\n",
		mp.LoadBalance, mp.CommEfficiency, mp.ParallelEfficiency,
		md.LoadBalance, md.CommEfficiency, md.ParallelEfficiency)

	// Byte identity across a cache-hit resubmission: the trace derives from
	// persisted artifacts, so the same spec must re-encode the same bytes.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		return fmt.Errorf("resubmitting trace job: %w", err)
	}
	if !again.CacheHit {
		return fmt.Errorf("identical trace-job resubmission was not a cache hit")
	}
	raw2, err := c.RawJobTrace(ctx, again.ID, client.TraceFormatPerfetto)
	if err != nil {
		return fmt.Errorf("re-fetching trace after cache hit: %w", err)
	}
	if !bytes.Equal(raw1, raw2) {
		return fmt.Errorf("trace bytes differ across cache-hit resubmission (%d vs %d bytes)",
			len(raw1), len(raw2))
	}
	fmt.Println("trace: byte-identical across cache-hit resubmission")

	// Metrics history: the background sampler runs on its own cadence, so
	// poll briefly until the Go-runtime series carries samples.
	var snap *history.Snapshot
	for i := 0; i < 60; i++ {
		snap, err = c.MetricsHistory(ctx, client.HistorySelection{
			Series: []string{"go_goroutines", "go_heap_bytes"},
		})
		if err != nil {
			return fmt.Errorf("fetching metrics history: %w", err)
		}
		if len(snap.Series) == 2 &&
			len(snap.Series[0].Samples) > 0 && len(snap.Series[1].Samples) > 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("metrics history never served samples: %w", ctx.Err())
		case <-time.After(500 * time.Millisecond):
		}
	}
	if snap.MaxSamples < 256 {
		return fmt.Errorf("history retains %d samples, contract requires >= 256", snap.MaxSamples)
	}
	if len(snap.Series) != 2 {
		return fmt.Errorf("history served %d series, want go_goroutines and go_heap_bytes", len(snap.Series))
	}
	for _, sr := range snap.Series {
		if len(sr.Samples) == 0 || sr.Samples[len(sr.Samples)-1].Value <= 0 {
			return fmt.Errorf("history series %s has no positive samples", sr.Name)
		}
	}
	fmt.Printf("history: %d ticks, %d/%d retained slots, go_goroutines=%.0f go_heap_bytes=%.0f\n",
		snap.Ticks, len(snap.Series[0].Samples), snap.MaxSamples,
		snap.Series[0].Samples[len(snap.Series[0].Samples)-1].Value,
		snap.Series[1].Samples[len(snap.Series[1].Samples)-1].Value)
	return nil
}

// runAnalytics drives the /v1/analytics/cluster contract: a seeded sedov
// fleet with one server-side NaN-poisoned member is clustered over physics
// features, and the improper noise component must flag exactly the poisoned
// run — on the analysis result, on the flagged job's view, and on the
// /statusz + /metricsz rollups — with the identical resubmission served as
// a cache hit. The poisoned member is the run server.NaNFault matches, so
// its telemetry must have tripped, or the server lacks -inject-nan.
func runAnalytics(ctx context.Context, c *client.Client, addr string) error {
	// Seed the verification fleet: healthy members across a gentle blast
	// energy ramp (distinct specs, smoothly varying physics) plus the one
	// member whose particle count the server's injection hook poisons. All
	// run server.NaNFaultStep steps, so the poison lands after the final one.
	member := func(n int, energy float64) scenario.JobSpec {
		return scenario.JobSpec{
			Spec: scenario.Spec{
				Scenario: "sedov",
				Params: scenario.Params{
					N: n, NNeighbors: 20,
					Extra: map[string]float64{"energy": energy},
				},
				Steps: server.NaNFaultStep,
			},
			Exec: scenario.Exec{Backend: scenario.BackendSerial},
		}
	}
	var ids []string
	for i := 0; i < fleet; i++ {
		j, err := c.Submit(ctx, member(fleetN, 1+0.005*float64(i)))
		if err != nil {
			return fmt.Errorf("seeding analytics fleet: %w", err)
		}
		ids = append(ids, j.ID)
	}
	nanJob, err := c.Submit(ctx, member(server.NaNFaultN, 1))
	if err != nil {
		return fmt.Errorf("seeding poisoned member: %w", err)
	}
	ids = append(ids, nanJob.ID)
	for _, id := range ids {
		j, err := c.WaitJob(ctx, id)
		if err != nil {
			return fmt.Errorf("waiting for fleet member %s: %w", id, err)
		}
		if j.State != client.StateCompleted {
			return fmt.Errorf("fleet member %s ended %s: %s", id, j.State, j.Error)
		}
		if id == nanJob.ID && j.Telemetry != telemetry.StatusTripped {
			return fmt.Errorf("%w: the poisoned member %s (sedov, N=%d) has telemetry %q, want %q",
				errNotInjected, id, server.NaNFaultN, j.Telemetry, telemetry.StatusTripped)
		}
	}
	fmt.Printf("analytics fleet: %d healthy + 1 poisoned (N=%d) completed\n", fleet, server.NaNFaultN)

	// Cluster on physics features only — phase time shares are wall-clock
	// scheduling noise on a shared CI worker pool.
	spec := cluster.Spec{
		Scenario: "sedov",
		Features: []string{
			cluster.GroupNorms, cluster.GroupPlateau,
			cluster.GroupConservation, cluster.GroupWatchdogs,
		},
		KLadder:       []int{1, 2},
		MinProportion: 0.2,
	}
	cls, err := c.SubmitCluster(ctx, spec)
	if err != nil {
		return fmt.Errorf("submitting cluster analysis: %w", err)
	}
	if cls, err = c.WaitCluster(ctx, cls.ID); err != nil {
		return fmt.Errorf("waiting for cluster analysis: %w", err)
	}
	if cls.State != string(client.StateCompleted) || cls.Result == nil {
		return fmt.Errorf("cluster analysis ended %s: %s", cls.State, cls.Error)
	}
	res := cls.Result
	fmt.Printf("analysis %s: %d jobs, k=%d, CPCC %.3f\n", cls.ID, cls.Jobs, res.K, res.CPCC)
	var flagged []string
	for _, m := range res.Members {
		if m.Anomaly {
			flagged = append(flagged, m.Hash)
		}
	}
	if len(flagged) != 1 || flagged[0] != nanJob.Hash {
		return fmt.Errorf("improper component flagged %v, want exactly the poisoned run %s",
			flagged, nanJob.Hash)
	}
	fmt.Printf("improper noise component: flagged exactly the poisoned run %.12s\n", nanJob.Hash)

	// The flagged job's view carries the anomaly rollup.
	j, err := c.Job(ctx, nanJob.ID)
	if err != nil {
		return fmt.Errorf("fetching poisoned job view: %w", err)
	}
	if j.Anomaly == nil || j.Anomaly.Analysis != cls.ID {
		return fmt.Errorf("poisoned job view lacks the anomaly mark: %+v", j.Anomaly)
	}

	// Identical resubmission is a cache hit on the persisted analysis.
	again, err := c.SubmitCluster(ctx, spec)
	if err != nil {
		return fmt.Errorf("resubmitting cluster analysis: %w", err)
	}
	if !again.CacheHit || again.State != string(client.StateCompleted) {
		return fmt.Errorf("identical analysis resubmission was not a cache hit: state=%s cacheHit=%v",
			again.State, again.CacheHit)
	}
	if again.Hash != cls.Hash {
		return fmt.Errorf("identical analyses hashed differently: %s vs %s", cls.Hash, again.Hash)
	}
	fmt.Println("identical analysis resubmission: cache hit")

	// The anomaly shows on the operator surfaces.
	_, statusz, err := get(ctx, addr+"/statusz", "", http.StatusOK)
	if err != nil {
		return err
	}
	if !strings.Contains(statusz, "anomalies") {
		return fmt.Errorf("/statusz missing the anomaly table:\n%s", statusz)
	}
	_, metricsz, err := get(ctx, addr+"/metricsz", "", http.StatusOK)
	if err != nil {
		return err
	}
	if !strings.Contains(metricsz, `analytics_anomalies_total{scenario="sedov"} 1`) {
		return fmt.Errorf("/metricsz missing analytics_anomalies_total for the flagged run")
	}
	fmt.Println("analytics: anomaly visible on /statusz and /metricsz")
	return nil
}

// get reads one operator surface pkg/client does not wrap, pinning the
// request ID unless it is empty, and fails unless the status is want. The
// response comes back with its body read and closed.
func get(ctx context.Context, target, requestID string, want int) (*http.Response, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, "", err
	}
	if requestID != "" {
		req.Header.Set(client.RequestIDHeader, requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("GET %s: %w", target, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("GET %s: reading body: %w", target, err)
	}
	if resp.StatusCode != want {
		return nil, "", fmt.Errorf("GET %s: status %d, want %d", target, resp.StatusCode, want)
	}
	return resp, string(b), nil
}

// runObservability checks the telemetry surfaces against the traffic the
// earlier legs generated: request tracing headers, the /statusz snapshot,
// and the /metricsz Prometheus exposition.
func runObservability(ctx context.Context, _ *client.Client, addr string) error {
	// Request tracing: a pinned ID is echoed, a missing one is generated,
	// and every response carries Server-Timing.
	resp, _, err := get(ctx, addr+"/v1/healthz", "smoke-trace-1", http.StatusOK)
	if err != nil {
		return err
	}
	if got := resp.Header.Get("X-Request-Id"); got != "smoke-trace-1" {
		return fmt.Errorf("pinned request ID not echoed: got %q", got)
	}
	if st := resp.Header.Get("Server-Timing"); !strings.Contains(st, "total;dur=") {
		return fmt.Errorf("response lacks Server-Timing: %q", st)
	}
	resp, _, err = get(ctx, addr+"/v1/healthz", "", http.StatusOK)
	if err != nil {
		return err
	}
	if got := resp.Header.Get("X-Request-Id"); len(got) != 16 {
		return fmt.Errorf("generated request ID %q, want 16 hex chars", got)
	}

	// /statusz: the human snapshot reflects the jobs the earlier legs ran.
	_, body, err := get(ctx, addr+"/statusz", "", http.StatusOK)
	if err != nil {
		return err
	}
	for _, want := range []string{"uptime", "workers", "route", "p95", "trimmed mean", "phase", "run"} {
		if !strings.Contains(body, want) {
			return fmt.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}

	// /metricsz: the exposition carries the request and lifecycle families.
	mresp, metrics, err := get(ctx, addr+"/metricsz", "", http.StatusOK)
	if err != nil {
		return err
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return fmt.Errorf("/metricsz content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE http_requests_total counter",
		"# TYPE http_request_duration_seconds histogram",
		"jobs_submitted_total",
		`job_phase_seconds_count{phase="run"}`,
		"# TYPE telemetry_watchdog_trips_total counter",
		"workers_total",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("/metricsz missing %q", want)
		}
	}
	fmt.Println("observability: tracing headers, /statusz, /metricsz intact")
	return nil
}
