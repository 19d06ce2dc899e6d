package server

import (
	"fmt"
	"net/http"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
)

// handleStatusz serves the human-readable operational snapshot: uptime,
// worker/queue occupancy, job lifecycle totals, store health, per-route
// latency digests (p50/p95/trimmed mean), job phase totals, and physics
// watchdog trips. It is diagnostics prose, not an API — /metricsz is the
// machine-readable surface.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.collect()
	snap := s.met.reg.Snapshot()
	byName := make(map[string]obs.FamilySnapshot, len(snap))
	for _, f := range snap {
		byName[f.Name] = f
	}

	s.mu.Lock()
	states := map[JobState]int{}
	s.jobs.eachLocked(func(job *Job) { states[job.State]++ })
	njobs, nexps := s.jobs.lenLocked(), s.Experiments.tab.lenLocked()
	nscls, nclss := s.Scaling.tab.lenLocked(), s.Analyses.tab.lenLocked()
	// Current anomaly rollup: flagged jobs by scenario (the cumulative
	// counter lives in analytics_anomalies_total; this is the live set).
	anomalies := map[string]int{}
	for _, mark := range s.anomalies {
		sc := mark.Scenario
		if sc == "" {
			sc = "unknown"
		}
		anomalies[sc]++
	}
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	defer tw.Flush()

	gauge := func(name string) float64 {
		if f, ok := byName[name]; ok && len(f.Series) == 1 {
			return f.Series[0].Value
		}
		return 0
	}

	fmt.Fprintf(tw, "sphexa-serve status\n\n")
	fmt.Fprintf(tw, "uptime\t%s\n", time.Duration(gauge("uptime_seconds")*float64(time.Second)).Round(time.Second))
	fmt.Fprintf(tw, "workers\t%.0f/%.0f busy\n", gauge("workers_busy"), gauge("workers_total"))
	fmt.Fprintf(tw, "queue\t%.0f/%.0f waiting\n", gauge("job_queue_depth"), gauge("job_queue_capacity"))
	fmt.Fprintf(tw, "inflight requests\t%.0f\n", gauge("http_inflight_requests"))
	fmt.Fprintf(tw, "jobs\t%d tracked (%d queued, %d running, %d completed, %d failed, %d cancelled)\n",
		njobs, states[StateQueued], states[StateRunning], states[StateCompleted],
		states[StateFailed], states[StateCancelled])
	fmt.Fprintf(tw, "experiments\t%d convergence, %d scaling\n", nexps, nscls)
	fmt.Fprintf(tw, "analyses\t%d cluster\n", nclss)

	stats := s.opts.Store.Stats()
	fmt.Fprintf(tw, "store\t%d entries, %d bytes, hit rate %.2f, %d puts, %d evictions, %d quarantined\n",
		stats.Entries, stats.Bytes, stats.HitRate, stats.Puts, stats.Evictions, stats.Quarantined)

	// Per-route latency digest, from the route-aggregated histogram family
	// (methods and status codes folded together).
	if f, ok := byName["http_route_duration_seconds"]; ok && len(f.Series) > 0 {
		series := append([]obs.Series(nil), f.Series...)
		sort.Slice(series, func(i, j int) bool { return series[i].Labels[0] < series[j].Labels[0] })
		fmt.Fprintf(tw, "\nroute\trequests\tp50\tp95\ttrimmed mean\n")
		for _, sr := range series {
			if sr.Hist == nil {
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%.1fms\t%.1fms\t%.1fms\n",
				sr.Labels[0], sr.Hist.Count, sr.Hist.P50*1e3, sr.Hist.P95*1e3, sr.Hist.TrimmedMean*1e3)
		}
	}

	// Job lifecycle phase totals (sum of wall-clock seconds per phase over
	// every executed job).
	if f, ok := byName["job_phase_seconds"]; ok && len(f.Series) > 0 {
		fmt.Fprintf(tw, "\nphase\tjobs\ttotal\tmean\n")
		for _, phase := range obs.LifecyclePhases {
			for _, series := range f.Series {
				if series.Labels[0] != phase || series.Hist == nil {
					continue
				}
				fmt.Fprintf(tw, "%s\t%d\t%.3fs\t%.1fms\n",
					phase, series.Hist.Count, series.Hist.Sum, series.Hist.Mean*1e3)
			}
		}
	}

	// Trend columns over the metrics-history store: the live value next to
	// the retained samples from ~1 and ~10 minutes ago (dash until the
	// history reaches back that far). Counters show their sampled
	// per-second rate at those points.
	if s.hist != nil {
		trend := func(name string, age time.Duration) string {
			if p, ok := s.hist.At(name, age); ok {
				return fmt.Sprintf("%.1f", p.Value)
			}
			return "-"
		}
		fmt.Fprintf(tw, "\nmetric\tnow\t1m ago\t10m ago\n")
		for _, name := range []string{
			"go_goroutines", "go_heap_bytes", "job_queue_depth",
			"workers_busy", "http_inflight_requests",
		} {
			fmt.Fprintf(tw, "%s\t%.1f\t%s\t%s\n",
				name, gauge(name), trend(name, time.Minute), trend(name, 10*time.Minute))
		}
	}

	// Jobs the newest covering cluster analysis assigned to the improper
	// noise component, by scenario (see POST /v1/analytics/cluster).
	if len(anomalies) > 0 {
		scenarios := make([]string, 0, len(anomalies))
		for sc := range anomalies {
			scenarios = append(scenarios, sc)
		}
		sort.Strings(scenarios)
		fmt.Fprintf(tw, "\nanomalies\tflagged jobs\n")
		for _, sc := range scenarios {
			fmt.Fprintf(tw, "%s\t%d\n", sc, anomalies[sc])
		}
	}

	// Physics watchdog trips, by kind (internal/telemetry flight recorders).
	if f, ok := byName["telemetry_watchdog_trips_total"]; ok && len(f.Series) > 0 {
		fmt.Fprintf(tw, "\nwatchdog\ttrips\n")
		for _, series := range f.Series {
			fmt.Fprintf(tw, "%s\t%.0f\n", series.Labels[0], series.Value)
		}
	}
}

// handleMetricsz serves the registry in the Prometheus text exposition
// format (version 0.0.4), scrape-time gauges refreshed.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.collect()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}
